//go:build amd64

package native

import "dbtrules/x86"

// The flag-liveness pass and its masks, for the external tests.
const (
	FlagCF = fCF
	FlagZF = fZF
	FlagSF = fSF
	FlagOF = fOF
)

func FlagsLiveAfter(host []x86.Instr) []uint8 {
	info := make([]pcInfo, len(host)+1)
	flagsLiveAfter(host, info)
	live := make([]uint8, len(host))
	for pc := range live {
		live[pc] = info[pc].live
	}
	return live
}
