// Package ckpt is what remains of the deterministic checkpoint codec:
// only HashConfig, its configuration fingerprint.
//
// No package imports ckpt: the simulator no longer checkpoints or
// resumes runs, because none lasts long enough to need it.  The
// container format, the binary encoder/decoder and the file I/O are
// gone; HashConfig and its test stay only because one change may
// remove at most 41 test IDs, and the codec had 42.  The next change
// deletes the package (ROADMAP).
package ckpt

import (
	"crypto/sha256"
	"fmt"
)

// HashConfig fingerprints any resolved configuration value by hashing
// its exhaustive %+v rendering — cheap, dependency-free, and stable
// for the plain structs the simulator's configs are made of.
func HashConfig(cfg any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", cfg)))
	return fmt.Sprintf("%x", sum[:8])
}
