package noalloc

import "redcache/internal/lint/testdata/src/noalloc/allocdep"

// crossPackage calls into an in-module dependency: the proof goes
// through only because allocdep's fact phase ran first and exported
// an AllocFree fact for Twice.
//
//redvet:hotpath
func crossPackage(n int) int { return allocdep.Twice(n) }
