package ckpt

import "testing"

func TestHashConfigStable(t *testing.T) {
	type cfg struct{ A, B int }
	h1, h2 := HashConfig(cfg{1, 2}), HashConfig(cfg{1, 2})
	if h1 != h2 {
		t.Errorf("HashConfig not stable: %s vs %s", h1, h2)
	}
	if HashConfig(cfg{1, 3}) == h1 {
		t.Error("HashConfig ignores field changes")
	}
}
