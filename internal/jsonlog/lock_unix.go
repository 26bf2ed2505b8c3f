//go:build unix

package jsonlog

import (
	"fmt"
	"os"
	"syscall"
)

// lockFile takes an exclusive, non-blocking flock on f.
func lockFile(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("directory is locked by another process: %w", err)
	}
	return nil
}
