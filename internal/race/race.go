//go:build race

// Package race reports whether the race detector is compiled in. Tests
// that pin allocation counts loosen them when it is: under the detector
// sync.Pool drops a quarter of its Puts, so pooled scratch is sometimes
// rebuilt.
package race

// Enabled is true in a -race build.
const Enabled = true
