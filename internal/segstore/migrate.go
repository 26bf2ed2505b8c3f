package segstore

import (
	"fmt"
	"os"

	"github.com/robotack/robotack/internal/jsonlog"
	"github.com/robotack/robotack/internal/results"
)

// MigrateFromJSONL streams a FileStore log into a fresh segstore
// directory — the one-shot `robotack-store migrate` path. Records
// stream line by line (a million-episode log never loads whole);
// episodes append in file order, so a log whose episodes were written
// in index order (the normal case) lands directly on the sorted fast
// path. The destination must be empty or nonexistent: migration never
// merges into live data. The source is replayed exactly as results.Load
// replays it (results.ReplayInto), so a torn final line is tolerated
// and anything Load refuses, migration refuses too.
func MigrateFromJSONL(src, dst string, opts ...Option) (migrated results.StoreStats, err error) {
	fi, statErr := os.Stat(dst)
	if statErr == nil && fi.IsDir() {
		entries, err := os.ReadDir(dst)
		if err != nil {
			return results.StoreStats{}, fmt.Errorf("segstore: migrate: %w", err)
		}
		if len(entries) > 0 {
			return results.StoreStats{}, fmt.Errorf("segstore: migrate: destination %s is not empty", dst)
		}
	} else if statErr == nil {
		return results.StoreStats{}, fmt.Errorf("segstore: migrate: destination %s exists and is not a directory", dst)
	}
	f, err := os.Open(src)
	if err != nil {
		return results.StoreStats{}, fmt.Errorf("segstore: migrate: %w", err)
	}
	defer f.Close()

	store, err := Open(dst, opts...)
	if err != nil {
		return results.StoreStats{}, err
	}
	defer func() {
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	if _, err := jsonlog.Scan(f, results.ReplayInto(store, src)); err != nil {
		return results.StoreStats{}, fmt.Errorf("segstore: migrate: %w", err)
	}
	if err := store.Sync(); err != nil {
		return results.StoreStats{}, err
	}
	return store.Stats()
}
