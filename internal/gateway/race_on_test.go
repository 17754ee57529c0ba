//go:build race

package gateway

// raceEnabled loosens allocation bounds: under the race detector
// sync.Pool drops a quarter of its Puts.
const raceEnabled = true
