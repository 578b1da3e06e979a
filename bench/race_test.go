//go:build race

package main

// raceEnabled reports a build with the race detector, which slows the
// paper-scale solves roughly tenfold.
const raceEnabled = true
