package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFTDCRoundTrip: encode a series of snapshots, decode, and get the
// same timestamps and values back exactly.
func TestFTDCRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}

	steps := []struct {
		ts      int64
		samples []Sample
	}{
		{1000, []Sample{{"a_total", 0}, {"b_gauge", -1.5}}},
		{2000, []Sample{{"a_total", 3}, {"b_gauge", 2.25}}},
		{3500, []Sample{{"a_total", 3}, {"b_gauge", math.Pi}}},
		// Schema change mid-stream: a new series appears.
		{5000, []Sample{{"a_total", 10}, {"b_gauge", 0}, {"c_total", 7}}},
		{6000, []Sample{{"a_total", 11}, {"b_gauge", -0.125}, {"c_total", 9}}},
	}
	for _, s := range steps {
		if err := enc.Encode(s.ts, s.samples); err != nil {
			t.Fatal(err)
		}
	}

	snaps, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != len(steps) {
		t.Fatalf("decoded %d snapshots, want %d", len(snaps), len(steps))
	}
	for i, s := range steps {
		if snaps[i].TS != s.ts {
			t.Errorf("snapshot %d: ts %d, want %d", i, snaps[i].TS, s.ts)
		}
		if len(snaps[i].Metrics) != len(s.samples) {
			t.Errorf("snapshot %d: %d series, want %d", i, len(snaps[i].Metrics), len(s.samples))
		}
		for _, want := range s.samples {
			if got := snaps[i].Metrics[want.Name]; got != want.Value {
				t.Errorf("snapshot %d: %s = %v, want %v", i, want.Name, got, want.Value)
			}
		}
	}
}

// roundTripCapture encodes the five snapshots of TestFTDCRoundTrip
// (one schema change mid-stream).
func roundTripCapture(t testing.TB) []byte {
	var buf bytes.Buffer
	enc, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		ts      int64
		samples []Sample
	}{
		{1000, []Sample{{"a_total", 0}, {"b_gauge", -1.5}}},
		{2000, []Sample{{"a_total", 3}, {"b_gauge", 2.25}}},
		{3500, []Sample{{"a_total", 3}, {"b_gauge", math.Pi}}},
		{5000, []Sample{{"a_total", 10}, {"b_gauge", 0}, {"c_total", 7}}},
		{6000, []Sample{{"a_total", 11}, {"b_gauge", -0.125}, {"c_total", 9}}},
	} {
		if err := enc.Encode(s.ts, s.samples); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sameSnapshots compares snapshots by timestamp and value bits, so NaN
// values compare equal to themselves.
func sameSnapshots(a, b []Snapshot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TS != b[i].TS || len(a[i].Metrics) != len(b[i].Metrics) {
			return false
		}
		for name, v := range a[i].Metrics {
			w, ok := b[i].Metrics[name]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

// checkPrefixes asserts that every byte prefix of a capture that
// decodes to full decodes, without error, to a prefix of full.
func checkPrefixes(t *testing.T, capture []byte, full []Snapshot) {
	t.Helper()
	for n := 0; n < len(capture); n++ {
		got, err := Decode(bytes.NewReader(capture[:n]))
		if err != nil {
			t.Fatalf("prefix of %d/%d bytes: %v", n, len(capture), err)
		}
		if len(got) > len(full) || !sameSnapshots(got, full[:len(got)]) {
			t.Fatalf("prefix of %d/%d bytes decoded to %d snapshots that are not a prefix of the capture's", n, len(capture), len(got))
		}
	}
}

// TestFTDCTornTailKeepsTimeline: a capture cut inside its last chunk
// still yields every complete snapshot (it used to yield none).
func TestFTDCTornTailKeepsTimeline(t *testing.T) {
	capture := roundTripCapture(t)
	full, err := Decode(bytes.NewReader(capture))
	if err != nil || len(full) != 5 {
		t.Fatalf("full capture: %d snapshots, %v", len(full), err)
	}
	got, err := Decode(bytes.NewReader(capture[:len(capture)-1]))
	if err != nil {
		t.Fatalf("capture cut by its last byte: %v", err)
	}
	if !sameSnapshots(got, full[:4]) {
		t.Fatalf("capture cut by its last byte decoded to %d snapshots, want the first 4", len(got))
	}
	checkPrefixes(t, capture, full)
	for _, bad := range [][]byte{
		[]byte("robotack-ftdc\x02"),                                     // bad magic
		append([]byte(ftdcMagic), 'X'),                                  // unknown chunk kind
		append([]byte(ftdcMagic), 'D', 0x02),                            // data before schema
		append([]byte(ftdcMagic), 'S', 1, 0xff, 0xff, 0xff, 0xff, 0x0f), // huge name
	} {
		if _, err := Decode(bytes.NewReader(bad)); err == nil {
			t.Errorf("Decode(%q) succeeded", bad)
		}
	}
}

// FuzzFTDCDecode: Decode never panics, and every byte prefix of a
// capture it accepts decodes to a prefix of that capture's snapshots.
func FuzzFTDCDecode(f *testing.F) {
	capture := roundTripCapture(f)
	f.Add(capture)
	f.Add(capture[:len(capture)-1])
	f.Add(capture[:len(ftdcMagic)+3])
	f.Add([]byte(ftdcMagic[:5]))
	f.Add([]byte("not a capture file at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		full, err := Decode(bytes.NewReader(data))
		if err != nil || len(data) > 4096 {
			return
		}
		checkPrefixes(t, data, full)
	})
}

// TestFTDCRejectsGarbage: a file without the magic header is refused.
func TestFTDCRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte("not a capture file at all"))); err == nil {
		t.Fatal("decoding garbage succeeded")
	}
}

// TestCaptureLifecycle: StartCapture writes a decodable file whose
// values track the registry, and Stop takes a final sample.
func TestCaptureLifecycle(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("cap_total", "")
	path := filepath.Join(t.TempDir(), "metrics.ftdc")

	cap, err := StartCapture(r, path, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	c.Add(5)
	time.Sleep(35 * time.Millisecond)
	c.Add(2)
	if err := cap.Stop(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	snaps, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("capture produced no snapshots")
	}
	// The final (Stop-time) sample must see the full total.
	last := snaps[len(snaps)-1]
	if got := last.Metrics["cap_total"]; got != 7 {
		t.Errorf("final snapshot cap_total = %v, want 7", got)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(snaps); i++ {
		if snaps[i].TS < snaps[i-1].TS {
			t.Errorf("snapshot %d: ts went backwards", i)
		}
	}
}
