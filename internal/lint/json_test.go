package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenJSON runs one analyzer over its fixture and compares the
// -json rendering byte-for-byte against the checked-in golden file —
// the CI selftest contract that the machine-readable schema is stable.
// Regenerate with REDVET_UPDATE_GOLDEN=1 go test ./internal/lint/.
func goldenJSON(t *testing.T, a *Analyzer, fixture string) {
	t.Helper()
	pkgs, err := Load("../..", "./internal/lint/testdata/src/"+fixture)
	if err != nil {
		t.Fatal(err)
	}
	session := NewSession(pkgs)
	session.IgnoreScope = true
	diags := session.Run([]*Analyzer{a})

	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, root, diags); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden", fixture+".json")
	if os.Getenv("REDVET_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with REDVET_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON output differs from %s (regenerate with REDVET_UPDATE_GOLDEN=1):\ngot:\n%s\nwant:\n%s",
			golden, buf.Bytes(), want)
	}
}

func TestGoldenJSONNoAlloc(t *testing.T) { goldenJSON(t, NoAlloc, "noalloc") }

// TestWriteJSONEmpty pins the no-findings rendering: a bare empty
// array, so CI consumers can parse it unconditionally.
func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, "", nil); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "[]\n" {
		t.Errorf("empty output = %q, want %q", got, "[]\n")
	}
}
