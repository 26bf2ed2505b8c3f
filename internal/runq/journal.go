package runq

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/robotack/robotack/internal/jsonlog"
)

// journalFile is the queue's on-disk log inside the queue directory.
const journalFile = "queue.jsonl"

// lockFileName is the queue directory's exclusivity lock
// (jsonlog.LockDir), held for the queue's whole lifetime so journal
// compaction can swap queue.jsonl underneath it without opening a
// double-server window.
const lockFileName = "queue.lock"

// compactThreshold is the journal size (bytes) above which Open
// rewrites queue.jsonl to its last-wins state. Long-lived queues append
// one snapshot line per state transition, so the journal grows without
// bound while the live state stays small; startup compaction caps
// replay time and disk use.
const compactThreshold = 1 << 20

// journalLine is the JSONL envelope: one self-describing record per
// line. Every state transition appends the job's full snapshot, and
// replay keeps the last line per id — the same last-wins idiom as the
// results store, so the journal is crash-safe by construction: a torn
// process leaves a valid prefix (plus at most one partial final line,
// which replay drops and truncates) and the previous state of every
// job.
type journalLine struct {
	Kind string `json:"kind"`
	Job  *Job   `json:"job,omitempty"`
}

const kindJob = "job"

// openJournal takes the queue dir's lock, then opens (creating if
// needed) dir/queue.jsonl for append and replays it last-wins into a
// job map. The returned lock file must stay open for the queue's
// lifetime.
func openJournal(dir string) (journal *jsonlog.Log, lock *os.File, jobs map[int]*Job, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("runq: create queue dir: %w", err)
	}
	if lock, err = jsonlog.LockDir(dir, lockFileName); err != nil {
		return nil, nil, nil, fmt.Errorf("runq: %w", err)
	}
	path := filepath.Join(dir, journalFile)
	jobs = make(map[int]*Job)
	journal, err = jsonlog.Open(path, func(lineno int, line []byte) error {
		var l journalLine
		if err := jsonlog.Decode(line, &l); err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineno, err)
		}
		if l.Kind != kindJob || l.Job == nil {
			return fmt.Errorf("%s:%d: unknown record kind %q", path, lineno, l.Kind)
		}
		j := *l.Job
		jobs[j.ID] = &j
		return nil
	})
	if err != nil {
		lock.Close()
		return nil, nil, nil, fmt.Errorf("runq: %w", err)
	}
	return journal, lock, jobs, nil
}

// compactJournal rewrites the journal to its last-wins state: one
// snapshot line per job, in id order, staged and renamed over
// queue.jsonl (jsonlog.Log.Rewrite). The directory lock is untouched
// by the swap.
func compactJournal(journal *jsonlog.Log, jobs map[int]*Job) error {
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var buf []byte
	for _, id := range ids {
		line, err := jsonlog.Line(journalLine{Kind: kindJob, Job: jobs[id]})
		if err != nil {
			return fmt.Errorf("runq: compact: encode job %d: %w", id, err)
		}
		buf = append(buf, line...)
	}
	if err := journal.Rewrite(buf); err != nil {
		return fmt.Errorf("runq: compact: %w", err)
	}
	return nil
}

// journalJob appends one job snapshot to the journal (no-op when the
// queue is memory-only).
func (q *Queue) journalJob(j *Job) error {
	if q.journal == nil {
		return nil
	}
	if _, err := q.journal.Append(journalLine{Kind: kindJob, Job: j}); err != nil {
		return fmt.Errorf("runq: journal job %d: %w", j.ID, err)
	}
	return nil
}
