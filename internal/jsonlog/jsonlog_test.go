package jsonlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// rec is a test record; kind "bad" parses but is semantically invalid.
type rec struct {
	Kind string `json:"kind"`
	N    int    `json:"n,omitempty"`
}

var errBadKind = errors.New("bad kind")

// collect scans raw with a rec decoder and returns copies of the lines
// it accepted.
func collect(raw []byte) (lines []string, good int64, err error) {
	good, err = Scan(bytes.NewReader(raw), func(_ int, line []byte) error {
		var r rec
		if err := Decode(line, &r); err != nil {
			return err
		}
		if r.Kind == "bad" {
			return errBadKind
		}
		lines = append(lines, string(line))
		return nil
	})
	return lines, good, err
}

func TestScanTornTailRule(t *testing.T) {
	const a, b = `{"kind":"a","n":1}`, `{"kind":"b","n":2}`
	for _, tc := range []struct {
		name, raw string
		lines     int
		good      int
		fails     bool
	}{
		{"empty", "", 0, 0, false},
		{"clean", a + "\n" + b + "\n", 2, 38, false},
		{"no final newline", a + "\n" + b, 2, 37, false},
		{"blank lines", "\n  \n" + a + "\n\n", 1, 24, false},
		{"torn tail", a + "\n" + `{"kind":"b","n`, 1, 19, false},
		{"torn line ending in newline", a + "\n" + `{"kind":"b","n` + "\n", 1, 19, false},
		{"torn line then white space", a + "\n" + "garbage\n \t\n ", 1, 19, false},
		{"interior garbage", "garbage\n" + a + "\n", 0, 0, true},
		{"garbage before trailing text", a + "\ngarbage\n x", 0, 0, true},
		{"semantic error at the end", a + "\n" + `{"kind":"bad"}` + "\n", 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lines, good, err := collect([]byte(tc.raw))
			if (err != nil) != tc.fails {
				t.Fatalf("err = %v, want failure=%v", err, tc.fails)
			}
			if tc.fails {
				return
			}
			if len(lines) != tc.lines || good != int64(tc.good) {
				t.Errorf("lines %d, good %d; want %d, %d", len(lines), good, tc.lines, tc.good)
			}
		})
	}
}

// TestScanLongLines: lines longer than the scanner's buffer come back
// whole, and a torn one is still dropped.
func TestScanLongLines(t *testing.T) {
	long := `{"kind":"` + strings.Repeat("x", 200<<10) + `"}`
	raw := long + "\n" + `{"kind":"a"}` + "\n" + long + "\n"
	lines, good, err := collect([]byte(raw))
	if err != nil || len(lines) != 3 || lines[0] != long || lines[2] != long || good != int64(len(raw)) {
		t.Fatalf("long lines: %d lines, good %d of %d, err %v", len(lines), good, len(raw), err)
	}
	torn := raw + long[:len(long)-1]
	if _, good, err := collect([]byte(torn)); err != nil || good != int64(len(raw)) {
		t.Fatalf("torn long line: good %d, err %v; want %d", good, err, len(raw))
	}
}

// TestLogOpenAppendRewrite: the writer truncates a torn tail, appends
// whole lines, rewrites atomically, and a read-only Load of a torn file
// leaves it as it is.
func TestLogOpenAppendRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	replay := func(got *[]rec) func(int, []byte) error {
		return func(_ int, line []byte) error {
			var r rec
			if err := Decode(line, &r); err != nil {
				return err
			}
			*got = append(*got, r)
			return nil
		}
	}
	var got []rec
	l, err := Open(path, replay(&got))
	if err != nil || len(got) != 0 {
		t.Fatalf("open new log: %v, %d records", err, len(got))
	}
	for i := 1; i <= 3; i++ {
		if _, err := l.Append(rec{Kind: "a", N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, `{"kind":"a","n":`...), 0o644); err != nil {
		t.Fatal(err)
	}

	got = nil
	if good, err := Load(path, replay(&got)); err != nil || good != int64(len(clean)) || len(got) != 3 {
		t.Fatalf("load torn log: good %d, %d records, %v", good, len(got), err)
	}
	if fi, _ := os.Stat(path); fi.Size() == int64(len(clean)) {
		t.Fatal("read-only load truncated the log")
	}

	got = nil
	if l, err = Open(path, replay(&got)); err != nil || len(got) != 3 || l.Size() != int64(len(clean)) {
		t.Fatalf("reopen torn log: %d records, size %d, %v", len(got), l.Size(), err)
	}
	defer l.Close()
	if raw, _ := os.ReadFile(path); !bytes.Equal(raw, clean) {
		t.Fatalf("torn tail not truncated: %q", raw)
	}

	compacted := []byte(`{"kind":"a","n":3}` + "\n")
	if err := l.Rewrite(compacted); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(rec{Kind: "a", N: 4}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"a","n":3}` + "\n" + `{"kind":"a","n":4}` + "\n"
	if raw, _ := os.ReadFile(path); string(raw) != want || l.Size() != int64(len(want)) {
		t.Fatalf("after rewrite and append: %q (size %d), want %q", raw, l.Size(), want)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("staging file left behind: %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(filepath.Join(t.TempDir(), "absent.jsonl"), func(int, []byte) error { return nil })
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Load(missing) = %v, want os.ErrNotExist", err)
	}
}

// FuzzScan checks the torn-tail rule every record log relies on (the
// results FileStore, segstore's campaigns log and segments, migration
// and the run-queue journal) on arbitrary input:
//   - no panic;
//   - the clean length is within the input and ends on a line boundary;
//   - rescanning the clean prefix yields the same lines and length;
//   - a clean log followed by a torn prefix of a valid line scans
//     without error to the clean length.
func FuzzScan(f *testing.F) {
	ep := `{"kind":"episode","episode":{"campaign":"torn","index":1,"seed":1001}}`
	camp := `{"kind":"campaign","campaign":{"name":"torn","runs":3}}`
	job := `{"kind":"job","job":{"id":1,"request":{"scenario":"DS-2","mode":"smart","runs":2},"state":"queued","total":2}}`
	for _, seed := range []string{
		"",
		ep + "\n" + camp + "\n",
		ep + "\n" + `{"kind":"campaign","campaign":{"na`,  // segstore campaigns log
		ep + "\n" + `{"campaign":"torn","ind`,             // segstore segment
		ep + "\n" + `{"kind":"episode","epis`,             // FileStore, migration
		job + "\n" + `{"kind":"job","job":{"id":2,"requ`,  // runq journal
		"garbage-line\n" + job + "\n",                     // interior corruption
		ep + "\n" + `{"kind":"episode","epis` + "\n\n \n", // malformed final line ending in newline
		ep + "\n" + `{"kind":"bad"}` + "\n",               // semantic error
		"\n\r\n" + ep + "\r\n" + ep,                       // blank lines, CRLF, no final newline
	} {
		f.Add([]byte(seed), uint16(7))
	}
	f.Fuzz(func(t *testing.T, raw []byte, cut uint16) {
		lines, good, err := collect(raw)
		if err != nil {
			return
		}
		if good < 0 || good > int64(len(raw)) {
			t.Fatalf("good %d outside [0, %d]", good, len(raw))
		}
		if good > 0 && good < int64(len(raw)) && raw[good-1] != '\n' {
			t.Fatalf("good %d is not on a line boundary", good)
		}
		again, good2, err := collect(raw[:good])
		if err != nil || good2 != good || !reflect.DeepEqual(again, lines) {
			t.Fatalf("rescan of the clean prefix: %d lines, good %d, err %v; want %d lines, good %d",
				len(again), good2, err, len(lines), good)
		}

		// Torn tail: the clean prefix, ended with a newline, then a
		// strict prefix of a valid line (an object, so no such prefix
		// parses).
		clean := append([]byte{}, raw[:good]...)
		if len(clean) > 0 && clean[len(clean)-1] != '\n' {
			clean = append(clean, '\n')
		}
		valid := []byte(ep)
		if len(lines) > 0 {
			valid = bytes.TrimSpace([]byte(lines[len(lines)-1]))
		}
		if !json.Valid(valid) || valid[0] != '{' {
			return
		}
		n := 1 + int(cut)%(len(valid)-1)
		torn := append(clean, valid[:n]...)
		_, tgood, err := collect(torn)
		if err != nil || tgood != int64(len(clean)) {
			t.Fatalf("clean log + torn %q: good %d, err %v; want %d", valid[:n], tgood, err, len(clean))
		}
	})
}
