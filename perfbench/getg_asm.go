//go:build amd64 || arm64

package main

// getg returns the address of the calling goroutine's runtime
// descriptor, which is fixed for the goroutine's life. A descriptor is
// reused once its goroutine exits, so a key taken from it is valid only
// while the goroutine that registered it runs. Implemented in assembly:
// parsing runtime.Stack costs microseconds per call, which would swamp
// the spans it parents.
func getg() uintptr
