//go:build race

package parsearch

func init() { raceEnabled = true }
