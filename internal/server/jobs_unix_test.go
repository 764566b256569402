//go:build unix

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"fairtcim/internal/generate"
)

// TestJobJournaledBeforeDone: a job's terminal record is in the journal
// before any client can see the job finished, so a restart right after a
// client saw "done" still finds the job. The journal file is swapped for
// a FIFO, and the graph name makes the record larger than a pipe buffer:
// the finisher's append opens the FIFO, then blocks mid-write until the
// test reads. The job's state while it is blocked is what a client could
// see before the record was written.
func TestJobJournaledBeforeDone(t *testing.T) {
	name := strings.Repeat("g", 256<<10)
	reg := NewRegistry()
	if err := reg.RegisterGraph(name, "synthetic:twostars", generate.TwoStars()); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Registry: reg, StateDir: dir})
	path := filepath.Join(dir, "jobs.jsonl")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Fatal(err)
	}

	job := submitJob(t, ts.URL, fmt.Sprintf(`{"graph":%q,"problem":"p4","budget":2,"tau":3,"engine":"ris","samples":50,"eval":"sample"}`, name))
	opened := make(chan *os.File, 1)
	go func() {
		f, err := os.Open(path) // returns once the finisher opens the write end
		if err != nil {
			t.Error(err)
		}
		opened <- f
	}()
	var fifo *os.File
	select {
	case fifo = <-opened:
	case <-time.After(30 * time.Second):
		t.Fatal("the job never appended its record to the journal")
	}
	if fifo == nil {
		t.FailNow()
	}
	defer fifo.Close()
	j, ok := s.jobs.get(job.ID)
	if !ok {
		t.Fatal("submitted job unknown")
	}
	if st := j.status(); terminal(st.Status) {
		t.Fatalf("job visible as %q before its journal record was written", st.Status)
	}

	raw, err := io.ReadAll(fifo)
	if err != nil {
		t.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("journal record of %d bytes: %v", len(raw), err)
	}
	if rec.ID != job.ID || rec.Status != JobDone || rec.Result == nil || rec.Picks != 2 {
		t.Fatalf("journaled record: id=%s status=%s picks=%d", rec.ID, rec.Status, rec.Picks)
	}
	if final := pollJob(t, ts.URL, job.ID, 30*time.Second); final.Status != JobDone {
		t.Fatalf("job ended %q", final.Status)
	}
}
