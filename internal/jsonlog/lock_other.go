//go:build !unix

package jsonlog

import "os"

// lockFile is a no-op where flock is unavailable; single-writer
// discipline on the directory is then the operator's responsibility.
func lockFile(*os.File) error { return nil }
