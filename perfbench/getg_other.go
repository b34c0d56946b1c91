//go:build !amd64 && !arm64

package main

import "runtime"

// getg returns the calling goroutine's ID, parsed from its stack header
// ("goroutine 123 [running]:"). This fallback costs microseconds per
// call; amd64 and arm64 read the goroutine descriptor in assembly.
func getg() uintptr {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	var id uintptr
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uintptr(c-'0')
	}
	return id
}
