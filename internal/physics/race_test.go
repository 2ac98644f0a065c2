//go:build race

package physics

// raceBuild is true when the tests run under the race detector, which
// makes the exhaustive solver sweeps too slow to run in full.
const raceBuild = true
