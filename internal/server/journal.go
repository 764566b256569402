package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// jobRecord is the journaled wire form of one finished job — everything
// GET /v1/jobs and GET /v1/jobs/{id} need to answer for it after a
// restart. Traces are not journaled: they exist for live streaming, and
// replaying a finished job's stream is served from Result instead.
type jobRecord struct {
	ID       string         `json:"id"`
	Graph    string         `json:"graph"`
	Problem  string         `json:"problem"`
	Status   string         `json:"status"`
	Error    string         `json:"error,omitempty"`
	Picks    int            `json:"picks"`
	Result   *SolveResponse `json:"result,omitempty"`
	Created  time.Time      `json:"created"`
	Finished time.Time      `json:"finished"`
}

// jobJournal is the append-only finished-job log at
// <state-dir>/jobs.jsonl: one JSON record per line, appended when a job
// reaches a terminal state. On open, the existing log is replayed (bad
// lines are skipped, never fatal — neither a torn final line after a
// crash nor an over-long record may take the daemon down), trimmed to the
// retention bound, and compacted back to disk. In-process appends keep
// counting lines, and once the file exceeds ~4× the retention bound
// maybeCompact rewrites it from the live store's retained history, so a
// long-running daemon's journal stays bounded instead of growing until
// the next restart.
type jobJournal struct {
	path      string
	retention int
	dropped   int64 // lines the replay at open skipped
	mu        sync.Mutex
	lines     int // records in the file: compacted base + appends since
}

// openJobJournal opens (creating if needed) the journal at path and
// returns the retained records, oldest first.
func openJobJournal(path string, retention int) (*jobJournal, []jobRecord, error) {
	j := &jobJournal{path: path, retention: retention}
	records, dropped, err := j.replay()
	if err != nil {
		return nil, nil, err
	}
	j.dropped = dropped
	if len(records) > retention {
		records = records[len(records)-retention:]
	}
	if err := j.compact(records); err != nil {
		return nil, nil, err
	}
	return j, records, nil
}

// maxJournalLine bounds the bytes replay holds for one record. Nothing
// bounds a record when it is appended, so a longer line (a finished job
// with a few million seeds) is skipped on replay like a torn one.
const maxJournalLine = 16 << 20

// replay reads every parseable record in file order, skipping torn,
// foreign and over-long lines, and counts the lines it skipped. A line
// with nothing on it, such as the empty chunk after the final newline, is
// no record and is not counted.
func (j *jobJournal) replay() ([]jobRecord, int64, error) {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("server: job journal: %w", err)
	}
	defer f.Close()
	var (
		records []jobRecord
		dropped int64
		line    []byte
		skip    bool // the current line outgrew maxJournalLine
	)
	rd := bufio.NewReader(f)
	for {
		chunk, err := rd.ReadSlice('\n')
		if !skip && len(line)+len(chunk) > maxJournalLine {
			skip, line = true, line[:0]
		}
		if !skip {
			line = append(line, chunk...)
		}
		if err == bufio.ErrBufferFull {
			continue // the line goes on
		}
		var rec jobRecord
		switch {
		case !skip && len(bytes.TrimSpace(line)) == 0:
			// no record on this line
		case !skip && json.Unmarshal(line, &rec) == nil && rec.ID != "":
			records = append(records, rec)
		default:
			dropped++ // a torn, foreign or over-long line: drop it, keep the rest
		}
		line, skip = line[:0], false
		if err == io.EOF {
			return records, dropped, nil
		}
		if err != nil {
			return nil, 0, fmt.Errorf("server: job journal: %w", err)
		}
	}
}

// droppedLines reports how many lines the replay at open skipped; 0
// without a journal.
func (j *jobJournal) droppedLines() int64 {
	if j == nil {
		return 0
	}
	return j.dropped
}

// compact rewrites the journal to exactly records (atomically, via temp
// file + rename).
func (j *jobJournal) compact(records []jobRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.compactLocked(records)
}

func (j *jobJournal) compactLocked(records []jobRecord) error {
	// Write next to the journal so the rename stays on one filesystem.
	tmp, err := os.CreateTemp(filepath.Dir(j.path), "jobs.jsonl.tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	enc := json.NewEncoder(tmp)
	for _, rec := range records {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return err
	}
	j.lines = len(records)
	return nil
}

// append writes one finished job to the log. Failures are returned for
// the caller to count; the in-memory store is already authoritative.
func (j *jobJournal) append(rec jobRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(rec); err != nil {
		return err
	}
	j.lines++
	return nil
}

// maybeCompact opportunistically rewrites an overgrown journal from the
// caller's authoritative retained history. It is a no-op until the file
// holds more than ~4× the retention bound, so steady append traffic pays
// nothing and the rewrite amortizes to O(1) per finished job. collect is
// invoked under the journal lock (lock order: journal.mu then the job
// store's mu); because the rewrite's source is the in-memory store, any
// torn or foreign lines in the file vanish with the excess. Returns
// whether a compaction ran; errors are reported on the same path as
// failed appends.
func (j *jobJournal) maybeCompact(collect func() []jobRecord) (bool, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.retention <= 0 || j.lines <= 4*j.retention {
		return false, nil
	}
	return true, j.compactLocked(collect())
}
