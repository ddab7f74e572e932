//go:build race

package main

// raceEnabled reports whether the self-tests run under the race detector,
// which slows every post far below the modeled inject gap.
const raceEnabled = true
