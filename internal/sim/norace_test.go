//go:build !race

package sim

// raceBuild is true when the tests run under the race detector, which
// slows the allocation-budget runs more than tenfold; the budgets are a
// property of the normal build.
const raceBuild = false
