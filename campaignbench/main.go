// Command campaignbench is robotack's end-to-end benchmark. It runs one
// workload for a fixed time from a seed and prints every metric by name
// with its unit; the last line of standard output is the JSON result.
//
//	bash campaignbench/run.sh --workload table2 --seed 1 --seconds 50 --trace 0
//
// Workloads (closed batches: engine workers pull episodes, no arrival
// rate):
//
//   - table2: the seven Table II campaigns in row order on one engine,
//     paper trigger and analytic oracles, records streamed into a
//     segstore as `robotack-campaign -out` does;
//   - store: no episodes in the timed phase; records built in set-up
//     from a short seeded sweep, written into a new store, reopened
//     read-only and queried.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no spans. With --trace 1 it reports per-layer metrics from a traced
// run instead: the frame loop re-driven with a span around every stage
// call (and checked against the program's own results), and a span
// around every store operation on both store formats.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// bench is one run's configuration and its tally of checked
// operations: every episode, record and query counts as attempted, and
// every one that fails an output check as failed.
type bench struct {
	root     string
	work     string
	seed     int64
	duration time.Duration
	workers  int
	stdout   io.Writer
	stderr   io.Writer

	attempted, failed int
	nextDir           int
}

// check counts one operation and reports whether it passed; a failure
// is printed to stderr with its reason.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if b.failed <= 20 {
			fmt.Fprintf(b.stderr, "campaignbench: check failed: "+format+"\n", args...)
		}
	}
	return ok
}

// fail counts an operation that returned an error.
func (b *bench) fail(err error) {
	b.check(false, "%v", err)
}

// tempDir returns a fresh path under the run's work directory.
func (b *bench) tempDir(name string) string {
	b.nextDir++
	return filepath.Join(b.work, fmt.Sprintf("%03d-%s", b.nextDir, name))
}

// until reports whether another repetition of about last's length still
// fits before the deadline; the first two repetitions always run.
func (b *bench) until(start time.Time, reps int, last time.Duration) bool {
	if reps < 2 {
		return true
	}
	return time.Since(start)+last <= b.duration
}

var workloads = map[string]func(*bench, bool) (metrics, error){
	"table2": runTable2,
	"store":  runStore,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("campaignbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "table2 or store")
		seed     = fs.Int64("seed", 1, "seed every input derives from")
		seconds  = fs.Float64("seconds", 50, "how long to measure")
		traced   = fs.Int("trace", 0, "1: per-layer metrics from a traced run; 0: end-to-end metrics")
		root     = fs.String("root", ".", "checkout root holding the robotack sources")
		work     = fs.String("work", ".bench_build/work", "scratch directory for stores")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "campaignbench: need --workload table2|store, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	b := &bench{
		root:     *root,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		workers:  runtime.NumCPU(),
		stdout:   stdout,
		stderr:   stderr,
	}
	b.work = filepath.Join(*work, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "campaignbench:", err)
		return 1
	}
	defer os.RemoveAll(b.work)

	host := hostStamp(b.root, b.workers)
	host["workload"] = *workload
	host["seed"] = *seed
	host["trace"] = *traced
	line, _ := json.Marshal(map[string]any{"host": host})
	fmt.Fprintln(stdout, string(line))

	m, err := fn(b, *traced == 1)
	if err != nil {
		b.fail(err)
	}
	if b.attempted == 0 {
		b.fail(errors.New("no operation was attempted"))
	}
	printTable(stdout, m)
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
	if res.Metrics == nil {
		res.Metrics = metrics{}
	}
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printTable(w io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
