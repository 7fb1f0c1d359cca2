package vfs

import (
	"errors"
	"fmt"
	"syscall"
)

// NoSpace returns a fresh injected out-of-space error; IsNoSpace
// recognizes it alongside real ENOSPC from the kernel.
func NoSpace() error {
	return fmt.Errorf("vfs: injected out-of-space fault: %w", syscall.ENOSPC)
}

// IsNoSpace reports whether err means the disk is full. Out-of-space
// is recoverable: the log degrades to read-only and re-arms once space
// returns.
func IsNoSpace(err error) bool { return errors.Is(err, syscall.ENOSPC) }
