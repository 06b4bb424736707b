// Command redvet runs the repository's domain-specific static-analysis
// suite: the analyzers in internal/lint that machine-check the
// simulator's determinism, unit and allocation contracts (see
// DESIGN.md, "Determinism contract & static analysis").  Since v3
// detsched proves the sim core free of scheduling nondeterminism and
// fporder pins the iteration order of float reductions.  v4 adds
// structural proofs: statefold (fold/merge/snapshot/delta/reset and
// checkpoint save/load functions drop no field of a stats or
// //redvet:state struct) and wallflow (wall-clock reads never reach
// deterministic state).  -proofstats reports the discharged obligation
// counts.
//
// Usage:
//
//	go run ./cmd/redvet ./...            # whole repo (CI entry point)
//	go run ./cmd/redvet -json ./...      # machine-readable findings
//	go run ./cmd/redvet -fix ./...       # findings + suggested fixes
//	go run ./cmd/redvet -list            # describe the analyzers
//
// A checked-in redvet.baseline (JSONL; `#` comments) sanctions known
// legacy findings, each with a mandatory justification.  The baseline
// may only shrink: entries that no longer match a live finding are
// reported as stale and fail the run.  Pass -baseline "" to ignore it.
//
// Exit codes: 0 clean, 1 findings (or stale baseline entries),
// 2 load/usage errors.  Findings print sorted by file position.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"redcache/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	fix := flag.Bool("fix", false, "print suggested fixes under each finding")
	baselinePath := flag.String("baseline", "redvet.baseline", "baseline file sanctioning legacy findings (\"\" disables; missing file = empty baseline)")
	factCache := flag.String("factcache", "", "directory for cached per-package analysis facts")
	proofStats := flag.Bool("proofstats", false, "print discharged proof-obligation counts to stderr after the run")
	proofStatsOut := flag.String("proofstatsout", "", "also write the proof-obligation counts as JSON to this file")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s //redvet:%-10s %s\n", a.Name, a.Directive, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "redvet:", err)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "redvet:", err)
		os.Exit(2)
	}

	session := lint.NewSession(pkgs)
	if *factCache != "" {
		session.LoadFactCache(*factCache)
	}
	diags := session.Run(analyzers)
	if *factCache != "" {
		if err := session.SaveFactCache(*factCache); err != nil {
			fmt.Fprintln(os.Stderr, "redvet: saving fact cache:", err)
		}
	}
	if *proofStats || *proofStatsOut != "" {
		ps := session.ProofStats()
		if *proofStats {
			fmt.Fprintf(os.Stderr, "redvet proofstats: %s\n", ps)
		}
		if *proofStatsOut != "" {
			data, merr := json.MarshalIndent(ps, "", "\t")
			if merr == nil {
				merr = os.WriteFile(*proofStatsOut, append(data, '\n'), 0o644)
			}
			if merr != nil {
				fmt.Fprintln(os.Stderr, "redvet: writing proofstats:", merr)
				os.Exit(2)
			}
		}
	}

	var stale []lint.BaselineEntry
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		switch {
		case os.IsNotExist(err):
			// No baseline file: every finding counts.
		case err != nil:
			fmt.Fprintln(os.Stderr, "redvet:", err)
			os.Exit(2)
		default:
			b, perr := lint.ParseBaseline(data)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "redvet: %s: %v\n", *baselinePath, perr)
				os.Exit(2)
			}
			diags, stale = b.Filter(root, diags)
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, root, diags); err != nil {
			fmt.Fprintln(os.Stderr, "redvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			rel := d
			if r, rerr := filepath.Rel(root, d.Pos.Filename); rerr == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel)
			if *fix && d.Fix != "" {
				fmt.Println(indent(d.Fix, "\tfix> "))
			}
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "redvet: stale baseline entry (finding no longer fires — delete it): [%s] %s: %s\n",
			e.Analyzer, e.File, e.Message)
	}

	if len(diags) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

// indent prefixes every line of s.
func indent(s, prefix string) string {
	out := prefix
	for _, r := range s {
		out += string(r)
		if r == '\n' {
			out += prefix
		}
	}
	return out
}
