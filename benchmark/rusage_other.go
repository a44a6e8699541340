//go:build !unix

package main

// peakRSSMB is unavailable without getrusage.
func peakRSSMB() float64 { return 0 }
