package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aware/internal/core"
)

// ErrJournal wraps journal-store failures so the HTTP layer can map them to a
// 500 instead of the default bad-request status: a step that mutated a
// session but could not be made durable is a server fault, not a client one.
var ErrJournal = errors.New("server: session journal")

// journalStore persists one append-only file per session under a directory:
// the header line (the session's SessionSpec) followed by one step (core step
// wire JSON) per line. The format is the same codec the steps endpoint speaks,
// so a journal replays with core.Replay, as RestoreSessions does after a
// daemon restart.
//
// A session's file is written before the session is reachable: Create (a new
// or API-restored session) or Reopen (a restart) runs as the prepublish step
// of SessionManager.Open. Every Append after that comes from a request holding
// the session's lock, so the appends of one session are serialized by that
// lock; the store's own mutex only guards the file-handle map.
type journalStore struct {
	dir string

	mu    sync.Mutex
	files map[int64]*os.File
}

// newJournalStore opens (creating if needed) the journal directory.
func newJournalStore(dir string) (*journalStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return &journalStore{dir: dir, files: make(map[int64]*os.File)}, nil
}

// path returns the journal file for a session ID.
func (j *journalStore) path(id int64) string {
	return filepath.Join(j.dir, fmt.Sprintf("session-%d.jsonl", id))
}

// Create starts the journal of a session opened with steps already applied
// (none for a new session): the header line, then one line per step, in one
// write. A file it cannot write in full is removed.
func (j *journalStore) Create(id int64, spec SessionSpec, steps []core.Step) error {
	buf, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	buf = append(buf, '\n')
	for _, step := range steps {
		line, err := core.MarshalStep(step)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrJournal, err)
		}
		buf = append(append(buf, line...), '\n')
	}
	f, err := os.OpenFile(j.path(id), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(j.path(id))
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	j.mu.Lock()
	j.files[id] = f
	j.mu.Unlock()
	return nil
}

// Reopen re-attaches the journal of a restored session for appending, first
// truncating it to the intact prefix Load replayed: a torn final line left by
// a crash mid-append must be cut off, or the next append would concatenate
// onto it and turn recoverable tail damage into unrecoverable mid-file
// corruption. Only Create and Reopen ever register a file handle: Append
// deliberately never opens files itself, so a step racing a concurrent
// DELETE (which removes the journal without holding the session lock) cannot
// resurrect the file as a header-less husk that would poison the next
// restart.
func (j *journalStore) Reopen(id, validBytes int64) error {
	f, err := os.OpenFile(j.path(id), os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	j.mu.Lock()
	j.files[id] = f
	j.mu.Unlock()
	return nil
}

// Append records one applied step. A missing handle means the journal was
// removed (session deleted or expired) — the append is refused rather than
// recreating the file.
func (j *journalStore) Append(id int64, step core.Step) error {
	j.mu.Lock()
	f, ok := j.files[id]
	j.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: journal for session %d is gone", ErrJournal, id)
	}
	line, err := core.MarshalStep(step)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("%w: %v", ErrJournal, err)
	}
	return nil
}

// Remove deletes a session's journal (the session was deleted or expired, so
// it must not be resurrected by the next restart).
func (j *journalStore) Remove(id int64) {
	j.mu.Lock()
	if f, ok := j.files[id]; ok {
		f.Close()
		delete(j.files, id)
	}
	j.mu.Unlock()
	os.Remove(j.path(id))
}

// Close releases every open file handle (daemon shutdown).
func (j *journalStore) Close() {
	j.mu.Lock()
	defer j.mu.Unlock()
	for id, f := range j.files {
		f.Close()
		delete(j.files, id)
	}
}

// JournaledSession is one session journal as read off disk: the session ID
// parsed from the file name, the spec from the header line, the replayable
// step log, the file it came from, and the length of the intact file prefix
// those were parsed from (a crash mid-append can leave a torn final line
// beyond it, which Reopen cuts off before appending again).
type JournaledSession struct {
	ID         int64
	Spec       SessionSpec
	Steps      []core.Step
	Path       string
	ValidBytes int64
}

// Load reads every journal in the directory, sorted by session ID. Files
// that do not parse — a crash can leave a truncated header or step line —
// are reported in skipped (as "file: reason") and left on disk for the
// operator, never failing the whole recovery: a daemon must be able to start
// after the very crashes journaling defends against. maxID is the highest
// session ID seen on disk including skipped files, so the caller can keep
// new session IDs from colliding with (and Create from truncating) journals
// that were kept for the operator.
func (j *journalStore) Load() (sessions []JournaledSession, skipped []string, maxID int64, err error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: %v", ErrJournal, err)
	}
	for _, entry := range entries {
		name := entry.Name()
		if entry.IsDir() || !strings.HasPrefix(name, "session-") || !strings.HasSuffix(name, ".jsonl") {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "session-"), ".jsonl"), 10, 64)
		if err != nil || id <= 0 {
			skipped = append(skipped, fmt.Sprintf("%s: malformed session id", name))
			continue
		}
		if id > maxID {
			maxID = id
		}
		js, err := j.load(id)
		if err != nil {
			skipped = append(skipped, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		sessions = append(sessions, js)
	}
	sort.Slice(sessions, func(a, b int) bool { return sessions[a].ID < sessions[b].ID })
	return sessions, skipped, maxID, nil
}

// load parses one journal file, walking newline-terminated lines and
// tracking how many leading bytes are intact. An unterminated or unparsable
// final line — the artifact of a crash mid-append — is dropped and excluded
// from ValidBytes; corruption anywhere else fails the file.
func (j *journalStore) load(id int64) (JournaledSession, error) {
	data, err := os.ReadFile(j.path(id))
	if err != nil {
		return JournaledSession{}, err
	}
	js := JournaledSession{ID: id, Path: j.path(id)}
	sawHeader := false
	offset := 0
	for offset < len(data) {
		nl := bytes.IndexByte(data[offset:], '\n')
		if nl < 0 {
			break // unterminated tail: torn final append, drop it
		}
		line := bytes.TrimSpace(data[offset : offset+nl])
		next := offset + nl + 1
		if len(line) == 0 {
			offset = next
			js.ValidBytes = int64(next)
			continue
		}
		if !sawHeader {
			if err := json.Unmarshal(line, &js.Spec); err != nil {
				return JournaledSession{}, fmt.Errorf("header: %v", err)
			}
			if js.Spec.Dataset == "" {
				return JournaledSession{}, fmt.Errorf("header names no dataset")
			}
			sawHeader = true
		} else {
			step, err := core.UnmarshalStep(line)
			if err != nil {
				if !hasContentAfter(data, next) {
					break // truncated final append; replay the intact prefix
				}
				return JournaledSession{}, fmt.Errorf("step %d: %v", len(js.Steps)+1, err)
			}
			js.Steps = append(js.Steps, step)
		}
		offset = next
		js.ValidBytes = int64(next)
	}
	if !sawHeader {
		return JournaledSession{}, fmt.Errorf("journal is empty")
	}
	return js, nil
}

// hasContentAfter reports whether any non-whitespace bytes follow offset.
func hasContentAfter(data []byte, offset int) bool {
	return len(bytes.TrimSpace(data[offset:])) > 0
}

// LoadJournals reads every session journal under dir without taking ownership
// of the files — the read-only counterpart of the store's recovery path, used
// by a cluster router to ship a dead node's sessions to successor replicas.
// Unparsable journals are reported in skipped (as "file: reason") and left on
// disk, mirroring RestoreSessions.
func LoadJournals(dir string) ([]JournaledSession, []string, error) {
	sessions, skipped, _, err := (&journalStore{dir: dir}).Load()
	return sessions, skipped, err
}
