package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fairtcim/internal/graph"
)

// TestJobJournalReplayTrimsAndSkipsGarbage: replay keeps the last
// retention parseable records, drops torn/foreign lines (a crash mid-
// append must not take the daemon down), and compacts the file.
func TestJobJournalReplayTrimsAndSkipsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	var lines []string
	for i := 0; i < 5; i++ {
		lines = append(lines, fmt.Sprintf(`{"id":"job%d","graph":"g","problem":"P1","status":"done","picks":2}`, i))
	}
	lines = append(lines,
		`{"id":"jobC","graph":"g","problem":"P4","status":"canceled","error":"canceled"}`,
		`{"id":"jobQ","graph":"g","problem":"P4","status":"queued"}`, // non-terminal: never restored
		`not json at all`,
		`{"truncated":`, // torn final append
	)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	journal, records, err := openJobJournal(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	if journal.dropped != 2 {
		t.Errorf("replay counted %d dropped lines, want 2 (the foreign and the torn one)", journal.dropped)
	}
	// 7 parseable records, trimmed to the last 4: job3, job4, jobC, jobQ.
	if len(records) != 4 || records[0].ID != "job3" || records[3].ID != "jobQ" {
		t.Fatalf("retained records: %+v", records)
	}

	st := newJobStore(4, 4, journal)
	st.restore(records)
	if _, ok := st.get("job0"); ok {
		t.Error("trimmed record restored")
	}
	if _, ok := st.get("jobQ"); ok {
		t.Error("non-terminal record restored")
	}
	j, ok := st.get("jobC")
	if !ok {
		t.Fatal("canceled record not restored")
	}
	if s := j.status(); s.Status != JobCanceled || s.Error != "canceled" {
		t.Errorf("restored canceled job: %+v", s)
	}
	if s := st.stats(); s.Done != 2 || s.Canceled != 1 {
		t.Errorf("restored counters: %+v", s)
	}

	// The file was compacted: garbage is gone, appends still work.
	if err := journal.append(jobRecord{ID: "new", Status: JobDone, Created: time.Now(), Finished: time.Now()}); err != nil {
		t.Fatal(err)
	}
	again, dropped, err := journal.replay()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 5 || again[4].ID != "new" || dropped != 0 {
		t.Fatalf("post-compact replay: %+v, %d dropped", again, dropped)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "not json") {
		t.Error("compaction kept garbage lines")
	}
}

// TestJobJournalSkipsOverlongRecord: a record longer than replay holds —
// here an 18 MB finished job with millions of seeds — is dropped like a
// torn line, and the records after it still come back. Both dropped
// lines are counted; the empty chunk after the final newline is not.
func TestJobJournalSkipsOverlongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	huge := `{"id":"huge","graph":"g","problem":"P1","status":"done","result":{"seeds":[` +
		strings.Repeat("1234567,", 2_250_000) + `0]}}`
	if len(huge) <= maxJournalLine {
		t.Fatalf("record of %d bytes is not over-long", len(huge))
	}
	body := strings.Join([]string{
		`{"id":"before","graph":"g","problem":"P1","status":"done","picks":2}`,
		huge,
		`{"id":"torn","graph":"g","prob`,
		`{"id":"after","graph":"g","problem":"P4","status":"done","picks":3}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	journal, records, err := openJobJournal(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || records[0].ID != "before" || records[1].ID != "after" || records[1].Picks != 3 {
		t.Fatalf("replayed %+v, want the records before and after the over-long one", records)
	}
	if journal.dropped != 2 {
		t.Fatalf("replay counted %d dropped lines, want 2", journal.dropped)
	}
}

// TestJournalDroppedReported: the lines the startup replay dropped reach
// /v1/stats as journal_dropped and /metrics as
// fairtcim_jobs_journal_dropped_total.
func TestJournalDroppedReported(t *testing.T) {
	dir := t.TempDir()
	body := `{"id":"kept","graph":"g","problem":"P1","status":"done","picks":1}` + "\n" + `{"id":"torn",` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{StateDir: dir})
	if got := s.Stats().JournalDropped; got != 1 {
		t.Fatalf("stats journal_dropped = %d, want 1", got)
	}
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	text, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "\nfairtcim_jobs_journal_dropped_total 1\n") {
		t.Fatalf("/metrics lacks the dropped-line counter:\n%s", text)
	}
}

// TestJobJournalOpportunisticCompaction: a long-running process must
// bound its own journal, not just trim it at the next restart. With
// retention 3, concurrent job completions push the file past the 4×
// threshold; the in-process compaction then rewrites it from the
// store's retained history — so garbage injected to simulate a crash's
// torn trailing line disappears with the excess — and the file keeps
// oscillating below the threshold instead of growing with every finish.
func TestJobJournalOpportunisticCompaction(t *testing.T) {
	const retention = 3
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	journal, _, err := openJobJournal(path, retention)
	if err != nil {
		t.Fatal(err)
	}
	st := newJobStore(64, retention, journal)

	// A crash mid-append leaves a torn, unterminated trailing line; the
	// next append glues onto it and replay drops the merged garbage.
	// Only a compaction actually removes it from the file.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"torn":`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	const workers, each = 4, 5 // 20 finishes ≫ 4×retention
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				j, err := st.add("g", "P1")
				if err != nil {
					t.Error(err)
					return
				}
				st.finish(j, &SolveResponse{}, nil)
			}
		}()
	}
	wg.Wait()

	if n := st.journalErrors.Load(); n != 0 {
		t.Fatalf("%d journal errors during churn", n)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"torn"`) {
		t.Error("compaction kept the torn trailing line")
	}
	lineCount := 0
	for _, l := range strings.Split(string(raw), "\n") {
		if l != "" {
			lineCount++
		}
	}
	// maybeCompact runs after every append, so the file can never settle
	// above the threshold (20 finishes would leave ≥20 lines without it).
	if lineCount > 4*retention {
		t.Errorf("journal settled at %d lines, want <= %d", lineCount, 4*retention)
	}
	records, _, err := journal.replay()
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range records {
		if !terminal(rec.Status) {
			t.Errorf("record %d non-terminal after compaction: %+v", i, rec)
		}
	}
	// A restart replays the compacted file down to exactly the retained
	// history.
	_, restored, err := openJobJournal(path, retention)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != retention {
		t.Errorf("restart restored %d records, want %d", len(restored), retention)
	}
}

// TestJobJournalEmptyDir: a fresh state dir means no history and an
// immediately usable journal.
func TestJobJournalEmptyDir(t *testing.T) {
	journal, records, err := openJobJournal(filepath.Join(t.TempDir(), "jobs.jsonl"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("records from nowhere: %+v", records)
	}
	if err := journal.append(jobRecord{ID: "a", Status: JobFailed}); err != nil {
		t.Fatal(err)
	}
	again, _, err := journal.replay()
	if err != nil || len(again) != 1 {
		t.Fatalf("replay after first append: %v, %+v", err, again)
	}
}

// FuzzJobJournalReplay: whatever jobs.jsonl holds at startup, opening the
// journal neither fails nor panics. It keeps at most retention records,
// each with an ID; a job store restored from them lists them; and the
// compacted file it leaves re-opens with no line dropped, into the same
// records.
func FuzzJobJournalReplay(f *testing.F) {
	const retention = 4
	done, err := json.Marshal(jobRecord{
		ID: "a", Graph: "g", Problem: "P4", Status: JobDone, Picks: 2,
		Result: &SolveResponse{Problem: "P4", Graph: "g", Engine: "ris",
			UtilityReport: UtilityReport{Seeds: []graph.NodeID{0, 11}, Total: 17, PerGroup: []float64{8, 9}},
			Trace:         []TraceEvent{{Iteration: 1, Seed: 0, Objective: 2.5, NormGroup: []float64{0.5, 0.25}}}},
		Created:  time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC),
		Finished: time.Date(2024, 1, 2, 3, 4, 6, 0, time.FixedZone("", 3600)),
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		"",
		string(done) + "\n",
		string(done) + "\n" + `{"id":"b","status":"failed","error":"boom"}` + "\n" + `{"id":"torn",`,
		`{"id":"q","status":"queued"}` + "\n" + `{"id":"c","status":"canceled"}` + "\n" + `{"id":"c","status":"done"}`,
		"not json\n\n{}\n[]\n" + `{"ID":"upper","Status":"done","created":"2024-01-02T03:04:05+23:59"}`,
		strings.Repeat(`{"id":"r","status":"done"}`+"\n", 2*retention),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, records, err := openJobJournal(path, retention)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if len(records) > retention {
			t.Fatalf("replay kept %d records, retention %d", len(records), retention)
		}
		for i, rec := range records {
			if rec.ID == "" {
				t.Fatalf("record %d has no ID: %+v", i, rec)
			}
		}
		st := newJobStore(4, retention, nil)
		st.restore(records)
		st.list()

		again, reopened, err := openJobJournal(path, retention)
		if err != nil {
			t.Fatalf("re-open: %v", err)
		}
		if again.dropped != 0 {
			t.Fatalf("re-opening the compacted journal dropped %d lines", again.dropped)
		}
		if len(reopened) != len(records) {
			t.Fatalf("re-open gave %d records, first open %d", len(reopened), len(records))
		}
		for i := range records {
			want, err := json.Marshal(records[i])
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(reopened[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d re-opened as %s, was %s", i, got, want)
			}
		}
	})
}
