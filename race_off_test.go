//go:build !race

package lci

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation allocates on paths that otherwise do not.
const raceEnabled = false
