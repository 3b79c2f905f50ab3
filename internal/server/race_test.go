//go:build race

package server

// raceEnabled: the race detector makes sync.Pool drop items at random,
// so allocation counts over pooled buffers do not hold.
const raceEnabled = true
