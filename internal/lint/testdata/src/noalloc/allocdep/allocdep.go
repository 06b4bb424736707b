// Package allocdep is the dependency side of the noalloc fixture: its
// function is proven allocation-free in its own fact phase, so the
// target package's hot path can call it only through cross-package
// facts.
package allocdep

// Twice is allocation-free (AllocFree fact).
func Twice(n int) int { return 2 * n }
