package config

import "testing"

// FuzzParseFaults asserts the fault spec parser never panics and
// never yields a configuration its own Validate rejects, and that
// Spec() output reparses to the identical rate set (modulo the seed and
// the escape rate, which a disabled spec does not carry).
func FuzzParseFaults(f *testing.F) {
	for _, seed := range []string{
		"", "off", "on", "default",
		"tag=0.5", "default,row=1e-3", "tag=1,tagescape=0,bus=0.25",
		"tag=0.001,tagescape=0.1,rcount=0.001,data=0.0002,row=2e-05,bus=0.0002",
		"tag", "tag=", "=0.5", "tag=NaN", "tag=-1", "tag=1e309",
		"default,default", ",,,", "tag=0.1,tag=0.2", " tag = 0.3 ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fc, err := ParseFaults(spec)
		if err != nil {
			return
		}
		if err := fc.Validate(); err != nil {
			t.Fatalf("ParseFaults(%q) returned invalid config %+v: %v", spec, fc, err)
		}
		back, err := ParseFaults(fc.Spec())
		if err != nil {
			t.Fatalf("Spec() output %q does not reparse: %v", fc.Spec(), err)
		}
		norm := fc
		norm.Seed = 0
		if !norm.Enabled() {
			// A disabled config renders as "off", which drops the
			// (meaningless without occurrences) escape rate.
			norm.TagEscape = 0
		}
		if back != norm {
			t.Fatalf("spec round trip diverged: %q -> %+v -> %q -> %+v",
				spec, fc, fc.Spec(), back)
		}
	})
}
