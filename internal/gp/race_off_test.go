//go:build !race

package gp

// raceBuild reports a build instrumented by -race.
const raceBuild = false
