package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aware/internal/api"
	"aware/internal/core"
)

// ErrSessionNotFound is returned when a session ID does not exist (never
// created, deleted, or expired by the idle sweeper).
var ErrSessionNotFound = errors.New("server: session not found")

// ErrSessionExists is returned by Open when the target ID is live or claimed
// by another Open: a cluster router restoring a dead node's sessions treats
// it as "someone got there first", not a failure.
var ErrSessionExists = errors.New("server: session already exists")

// SessionSpec is the serializable recipe for a session — the api package owns
// the wire definition (it doubles as the journal header line and the cluster
// restore payload); the server re-exports it so existing consumers keep
// compiling.
type SessionSpec = api.SessionSpec

// SessionInfo is the lock-free summary of a managed session used in listings
// and creation responses.
type SessionInfo = api.SessionInfo

// managedSession pairs a core.Session with the lock that serializes access to
// it. core.Session is single-threaded by contract (see its doc comment); the
// manager guarantees that at most one request operates on a session at a
// time while leaving distinct sessions fully concurrent. lastActive is
// atomic (not guarded by mu) so the idle sweeper and listings can read it
// without waiting behind a long-running request.
type managedSession struct {
	id        int64
	spec      SessionSpec
	alpha     float64
	policy    string
	createdAt time.Time

	mu         sync.Mutex // serializes access to session
	session    *core.Session
	lastActive atomic.Int64 // UnixNano of the last request touching the session
}

func (m *managedSession) info() SessionInfo {
	return SessionInfo{
		ID:         m.id,
		Dataset:    m.spec.Dataset,
		Alpha:      m.alpha,
		Policy:     m.policy,
		CreatedAt:  m.createdAt,
		LastActive: time.Unix(0, m.lastActive.Load()),
	}
}

// SessionManager owns the live exploration sessions of the service: opening
// under monotonically increasing IDs, per-session locking, listing, deletion
// and idle-TTL expiry. All methods are safe for concurrent use.
type SessionManager struct {
	ttl time.Duration
	now func() time.Time

	mu       sync.Mutex
	sessions map[int64]*managedSession // published: reachable by every method
	claimed  map[int64]bool            // claimed by an Open still running prepublish
	nextID   int64
}

// NewSessionManager builds a manager whose sessions expire after sitting idle
// for ttl (0 disables expiry). now supplies the clock; pass nil for time.Now.
func NewSessionManager(ttl time.Duration, now func() time.Time) *SessionManager {
	if now == nil {
		now = time.Now
	}
	return &SessionManager{
		ttl:      ttl,
		now:      now,
		sessions: make(map[int64]*managedSession),
		claimed:  make(map[int64]bool),
	}
}

// Open publishes sess, built from spec, under id, or under the next unused ID
// when id is 0, and returns its summary. It first claims the ID: one that is
// live, or claimed by an Open still running, is ErrSessionExists. prepublish
// (if non-nil) then runs with the ID, and the session is published only once
// it succeeds, so what must exist for every reachable session (its journal,
// holding the header and every step sess was opened with) is there before a
// request can reach it. Until then With, Info, List, Len, Delete and SweepIdle
// do not see the ID. If prepublish fails the claim is released and its error
// returned: a given ID can be opened again, an allocated one stays burned.
// Allocated IDs are monotonic across the life of the manager and never handed
// out twice, so a client can treat a 404 as "session expired" rather than
// "someone else's session"; a given ID moves the sequence past it.
func (sm *SessionManager) Open(id int64, spec SessionSpec, sess *core.Session, prepublish func(id int64) error) (SessionInfo, error) {
	sm.mu.Lock()
	if id == 0 {
		id = sm.nextID + 1
	} else if _, live := sm.sessions[id]; live || sm.claimed[id] {
		sm.mu.Unlock()
		return SessionInfo{}, fmt.Errorf("%w: %d", ErrSessionExists, id)
	}
	sm.nextID = max(sm.nextID, id)
	sm.claimed[id] = true
	sm.mu.Unlock()
	if prepublish != nil {
		if err := prepublish(id); err != nil {
			sm.mu.Lock()
			delete(sm.claimed, id)
			sm.mu.Unlock()
			return SessionInfo{}, err
		}
	}
	now := sm.now()
	ms := &managedSession{
		id:        id,
		spec:      spec,
		alpha:     sess.Alpha(),
		policy:    sess.PolicyName(),
		createdAt: now,
		session:   sess,
	}
	ms.lastActive.Store(now.UnixNano())
	sm.mu.Lock()
	delete(sm.claimed, id)
	sm.sessions[id] = ms
	sm.mu.Unlock()
	return ms.info(), nil
}

// ReserveIDs bumps the ID sequence past floor, so sessions created later
// never collide with IDs observed elsewhere (journals kept on disk for the
// operator after a failed restore).
func (sm *SessionManager) ReserveIDs(floor int64) {
	sm.mu.Lock()
	if floor > sm.nextID {
		sm.nextID = floor
	}
	sm.mu.Unlock()
}

// Spec returns the creation spec of a session. Specs are immutable after
// creation, so the result can be used without holding the session lock.
func (sm *SessionManager) Spec(id int64) (SessionSpec, error) {
	sm.mu.Lock()
	ms, ok := sm.sessions[id]
	sm.mu.Unlock()
	if !ok {
		return SessionSpec{}, fmt.Errorf("%w: %d", ErrSessionNotFound, id)
	}
	return ms.spec, nil
}

// With runs fn with exclusive access to the identified session and marks the
// session active. The per-session lock is held for the whole call, so fn must
// finish reading (or serializing) everything it needs from the session before
// returning — retaining *Hypothesis or *Visualization pointers past the call
// is a data race.
func (sm *SessionManager) With(id int64, fn func(*core.Session) error) error {
	sm.mu.Lock()
	ms, ok := sm.sessions[id]
	sm.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %d", ErrSessionNotFound, id)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	// Touch the activity clock on entry and again on exit, so a request that
	// ran longer than the TTL still counts as fresh when it completes.
	ms.lastActive.Store(sm.now().UnixNano())
	defer func() { ms.lastActive.Store(sm.now().UnixNano()) }()
	return fn(ms.session)
}

// Info returns the summary of one session.
func (sm *SessionManager) Info(id int64) (SessionInfo, error) {
	sm.mu.Lock()
	ms, ok := sm.sessions[id]
	sm.mu.Unlock()
	if !ok {
		return SessionInfo{}, fmt.Errorf("%w: %d", ErrSessionNotFound, id)
	}
	return ms.info(), nil
}

// List returns every live session, ordered by ID.
func (sm *SessionManager) List() []SessionInfo {
	sm.mu.Lock()
	all := make([]*managedSession, 0, len(sm.sessions))
	for _, ms := range sm.sessions {
		all = append(all, ms)
	}
	sm.mu.Unlock()
	out := make([]SessionInfo, len(all))
	for i, ms := range all {
		out[i] = ms.info()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (sm *SessionManager) Len() int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	return len(sm.sessions)
}

// Delete removes a session, reporting whether it existed. An in-flight With
// call on the session finishes normally; the session is simply no longer
// reachable afterwards.
func (sm *SessionManager) Delete(id int64) bool {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	_, ok := sm.sessions[id]
	delete(sm.sessions, id)
	return ok
}

// SweepIdle deletes every session idle for longer than the manager's TTL and
// returns the IDs it removed. With a zero TTL it is a no-op.
func (sm *SessionManager) SweepIdle() []int64 {
	if sm.ttl <= 0 {
		return nil
	}
	cutoff := sm.now().Add(-sm.ttl).UnixNano()
	sm.mu.Lock()
	defer sm.mu.Unlock()
	var expired []int64
	for id, ms := range sm.sessions {
		if ms.lastActive.Load() < cutoff {
			expired = append(expired, id)
		}
	}
	for _, id := range expired {
		delete(sm.sessions, id)
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
	return expired
}
