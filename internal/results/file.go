package results

import (
	"errors"
	"fmt"
	"sync"

	"github.com/robotack/robotack/internal/jsonlog"
)

// Envelope is the store's JSONL line: one self-describing record per
// line, so a store file is an append-only log that any language can
// stream. segstore's campaigns log uses it too.
type Envelope struct {
	Kind     string          `json:"kind"`
	Episode  *EpisodeRecord  `json:"episode,omitempty"`
	Campaign *CampaignRecord `json:"campaign,omitempty"`
}

// Envelope kinds.
const (
	KindEpisode  = "episode"
	KindCampaign = "campaign"
)

// ReplayInto returns the jsonlog line callback that folds a store
// log's lines into st: episodes append, campaigns upsert. Errors name
// path and line. FileStore's open and load and segstore's migration
// all replay through it, so they accept exactly the same files.
func ReplayInto(st Store, path string) func(lineno int, line []byte) error {
	return func(lineno int, line []byte) error {
		var l Envelope
		err := jsonlog.Decode(line, &l)
		switch {
		case err != nil:
		case l.Kind == KindEpisode && l.Episode != nil:
			err = st.Append(*l.Episode)
		case l.Kind == KindCampaign && l.Campaign != nil:
			err = st.PutCampaign(*l.Campaign)
		default:
			err = fmt.Errorf("unknown record kind %q", l.Kind)
		}
		if err != nil {
			return fmt.Errorf("%s:%d: %w", path, lineno, err)
		}
		return nil
	}
}

// FileStore is the JSONL-backed Store: an append-only log on disk
// mirrored by an in-memory index for queries. Appends go straight to
// the file, so an interrupted campaign keeps every episode that
// completed; re-opening folds duplicate (campaign, index) keys and
// repeated campaign aggregates last-wins, exactly like a log replay.
// A torn final line (the state a kill -9 mid-append leaves) is dropped
// and truncated on open, so the next append starts on a clean line
// boundary (the jsonlog rule every record log shares).
type FileStore struct {
	mu  sync.Mutex
	mem *MemStore
	log *jsonlog.Log
}

// Open opens (creating if needed) a JSONL store for reading and
// appending. A torn final line is cut from the file.
func Open(path string) (*FileStore, error) {
	mem := NewMemStore()
	log, err := jsonlog.Open(path, ReplayInto(mem, path))
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return &FileStore{mem: mem, log: log}, nil
}

// Load reads a JSONL store into memory without holding the file open:
// the read-only path used by diffs and the campaign service. A torn
// final line is tolerated and ignored (never truncated: the writer
// that owns the file does that on its next open).
func Load(path string) (*MemStore, error) {
	mem := NewMemStore()
	if _, err := jsonlog.Load(path, ReplayInto(mem, path)); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return mem, nil
}

// Path reports the store's file path.
func (s *FileStore) Path() string { return s.log.Path() }

func (s *FileStore) append(l Envelope) error {
	if _, err := s.log.Append(l); err != nil {
		return fmt.Errorf("results: append to %s: %w", s.log.Path(), err)
	}
	return nil
}

// Append implements Sink: the episode is written to the log before it
// is visible to queries, so a crash never loses an acknowledged record.
func (s *FileStore) Append(ep EpisodeRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(Envelope{Kind: KindEpisode, Episode: &ep}); err != nil {
		return err
	}
	return s.mem.Append(ep)
}

// PutCampaign implements Store; upserts append a fresh line and the
// loader keeps the last one.
func (s *FileStore) PutCampaign(c CampaignRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.append(Envelope{Kind: KindCampaign, Campaign: &c}); err != nil {
		return err
	}
	return s.mem.PutCampaign(c)
}

// Campaigns implements Store.
func (s *FileStore) Campaigns() ([]CampaignRecord, error) { return s.mem.Campaigns() }

// Episodes implements Store.
func (s *FileStore) Episodes(campaign string) ([]EpisodeRecord, error) {
	return s.mem.Episodes(campaign)
}

// EpisodeCampaigns lists campaign names that have episode records.
func (s *FileStore) EpisodeCampaigns() []string { return s.mem.EpisodeCampaigns() }

// Stats implements StatsProvider: record counts from the in-memory
// mirror, bytes from the log.
func (s *FileStore) Stats() (StoreStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, err := s.mem.Stats()
	if err != nil {
		return StoreStats{}, err
	}
	st.Format = FormatJSONL
	st.Path = s.log.Path()
	st.BytesEstimate = s.log.Size()
	return st, nil
}

// Sync flushes the log to stable storage.
func (s *FileStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Sync()
}

// Close syncs and closes the underlying file.
func (s *FileStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(s.log.Sync(), s.log.Close())
}
