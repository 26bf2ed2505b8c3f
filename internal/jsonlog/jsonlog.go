// Package jsonlog is the append-only JSONL log under every durable
// record file in the repo: the results FileStore, segstore's campaigns
// log and segments, store migration and the run queue's journal. Each
// is a last-wins log of one JSON record per line; this package owns the
// parts they share: the torn-tail scan rule, the writer's open, append
// and staged rewrite, atomic file replacement and the directory lock.
package jsonlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unicode"
)

// errMalformedLine marks a line that does not parse: a record cut
// mid-write by a crash cannot parse, and when nothing but blank bytes
// follow it, a scan drops it instead of failing. Only Decode wraps it;
// a line that parses but carries a semantically invalid record (unknown
// kind, newer schema) must fail with another error, because silently
// dropping a complete record would lose data.
var errMalformedLine = errors.New("malformed line")

// Decode unmarshals one line into v. Its failure is the one error a
// Scan callback may return that makes a final line a torn tail.
func Decode(line []byte, v any) error {
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("%w: %w", errMalformedLine, err)
	}
	return nil
}

// Line encodes v as one log line: its JSON and a newline.
func Line(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

// Scan reads r line by line, calling fn for every non-blank line (the
// line without its newline, valid only during the call), and returns
// how many leading bytes were consumed cleanly.
//
// The torn-tail rule: if fn fails with an error from Decode on a line
// after which only blank bytes remain (the disk state a kill -9
// mid-append leaves), scanning stops and that line is excluded from the
// clean length, with no error. Any other failure, or a malformed line
// with real content after it, aborts the scan: skipping interior
// corruption could silently resurrect stale last-wins state.
//
// Writers truncate their log to the returned length so the next append
// starts on a clean line boundary; read-only loads just ignore the
// tail.
func Scan(r io.Reader, fn func(lineno int, line []byte) error) (good int64, err error) {
	return scan(bufio.NewReaderSize(r, maxBuf), fn)
}

// maxBuf is the scan's read buffer size; longer lines are gathered.
const maxBuf = 64 << 10

func scan(br *bufio.Reader, fn func(lineno int, line []byte) error) (good int64, err error) {
	var long []byte
	for lineno := 1; ; lineno++ {
		chunk, rerr := br.ReadSlice('\n')
		if errors.Is(rerr, bufio.ErrBufferFull) {
			// A line longer than the buffer: gather it.
			long = append(long[:0], chunk...)
			for errors.Is(rerr, bufio.ErrBufferFull) {
				chunk, rerr = br.ReadSlice('\n')
				long = append(long, chunk...)
			}
			chunk = long
		}
		if rerr != nil && rerr != io.EOF {
			return 0, rerr
		}
		if len(chunk) == 0 {
			return good, nil
		}
		line := bytes.TrimSuffix(chunk, []byte{'\n'})
		if len(bytes.TrimSpace(line)) > 0 {
			if err := fn(lineno, line); err != nil {
				if !errors.Is(err, errMalformedLine) {
					return 0, err
				}
				blank, rerr := restBlank(br)
				if rerr != nil {
					return 0, rerr
				}
				if !blank {
					return 0, err
				}
				return good, nil
			}
		}
		good += int64(len(chunk))
		if rerr == io.EOF {
			return good, nil
		}
	}
}

// restBlank reports whether nothing but white space remains in br,
// reading only up to the first other rune.
func restBlank(br *bufio.Reader) (bool, error) {
	for {
		r, _, err := br.ReadRune()
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		if !unicode.IsSpace(r) {
			return false, nil
		}
	}
}

// scanFile scans f with a read buffer no larger than the file needs, so
// opening a small or empty log allocates little. It also returns the
// file's size.
func scanFile(f *os.File, fn func(lineno int, line []byte) error) (good, size int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	good, err = scan(bufio.NewReaderSize(f, int(min(max(fi.Size(), 512), maxBuf))), fn)
	return good, fi.Size(), err
}

// Load replays the log at path read-only: a torn tail is ignored, never
// repaired (the writer that owns the file does that on its next open).
// A missing file is an error wrapping os.ErrNotExist.
func Load(path string, fn func(lineno int, line []byte) error) (good int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	good, _, err = scanFile(f, fn)
	return good, err
}

// Log is an append-only JSONL file open for writing. Not safe for
// concurrent use; its owners serialize access.
type Log struct {
	f    *os.File
	path string
	size int64
}

// Open opens (creating if needed) the log at path for appending,
// replays every line through fn, and repairs the end of the file so the
// next append starts on a clean line boundary.
func Open(path string, fn func(lineno int, line []byte) error) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	good, size, err := scanFile(f, fn)
	if err == nil {
		good, err = repair(f, good, size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, path: path, size: good}, nil
}

// Repair makes the file at path, whose first good bytes scanned clean,
// end on a line boundary, as Open does for its log; it is for files
// with their own writer (segstore segments). It returns the new length.
func Repair(path string, good int64) (int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
	if err != nil {
		return 0, err
	}
	fi, err := f.Stat()
	if err == nil {
		good, err = repair(f, good, fi.Size())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return good, err
}

// repair cuts the torn tail of f (open for appending) beyond its good
// bytes, and ends a final line whose newline never reached the disk: a
// record that scans clean, which the next append would otherwise run
// into, turning both into one malformed line.
func repair(f *os.File, good, size int64) (int64, error) {
	if size > good {
		if err := f.Truncate(good); err != nil {
			return 0, fmt.Errorf("%s: drop torn tail: %w", f.Name(), err)
		}
	}
	if good == 0 {
		return 0, nil
	}
	last := []byte{0}
	if _, err := f.ReadAt(last, good-1); err != nil {
		return 0, err
	}
	if last[0] == '\n' {
		return good, nil
	}
	if _, err := f.Write([]byte{'\n'}); err != nil {
		return 0, fmt.Errorf("%s: end the final line: %w", f.Name(), err)
	}
	return good + 1, nil
}

// Path reports the log's file path.
func (l *Log) Path() string { return l.path }

// Size reports the log's length in bytes.
func (l *Log) Size() int64 { return l.size }

// Append writes v as one line, returning the line's length.
func (l *Log) Append(v any) (int, error) {
	raw, err := Line(v)
	if err != nil {
		return 0, err
	}
	n, err := l.f.Write(raw)
	l.size += int64(n)
	return n, err
}

// Rewrite replaces the log's content with data (whole lines, usually
// its last-wins state): staged, fsynced and renamed over the log, then
// reopened for appending. A crash at any point leaves either the old
// log or the complete new one.
func (l *Log) Rewrite(data []byte) error {
	if err := WriteFileAtomic(l.path, data); err != nil {
		return err
	}
	l.f.Close() // the old inode is gone from the directory
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("reopen %s: %w", l.path, err)
	}
	l.f, l.size = f, int64(len(data))
	return nil
}

// Sync flushes the log to stable storage.
func (l *Log) Sync() error { return l.f.Sync() }

// Close releases the file without syncing it.
func (l *Log) Close() error { return l.f.Close() }

// WriteFileAtomic stages data in path+".tmp", fsyncs it and renames it
// over path, so a crash at any point leaves either the old file or the
// complete new one.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("stage %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stage %s: %w", filepath.Base(path), err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stage %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("install %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LockDir takes an exclusive lock on dir/name, creating the file if
// needed, and returns the open lock file: it must stay open for as long
// as the lock is held. The lock lives on its own file, never renamed,
// so rewrites and generation swaps can happen underneath it. Two
// writers on one directory would interleave appends; the lock dies with
// the file descriptor, so a kill -9 never leaves a stale lock behind.
func LockDir(dir, name string) (*os.File, error) {
	path := filepath.Join(dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
