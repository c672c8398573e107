package server

import (
	"fmt"
	"net/http"

	"aware/internal/api"
	"aware/internal/core"
)

// handleRestoreSession opens a session under an explicit ID from its creation
// spec plus step log — the cluster failover path: a router that holds a dead
// node's journal ships it here and the successor rebuilds the exact session
// with core.Replay. With an empty step list it is placement-first creation:
// the router picks the ID and the owning node, the node starts a fresh
// session.
//
// The session opens through openSession like every other: the ID is claimed
// first (session_exists if it is live or being opened), then the journal is
// written with the header and every step, and only then is the session
// reachable. A step racing onto the ID is answered 404 until the journal holds
// the restored log, and lands after it; a journal that cannot be written
// fails the request and leaves no session behind.
func (s *Server) handleRestoreSession(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if id <= 0 {
		writeErr(w, fmt.Errorf("cannot restore session with id %d", id))
		return
	}
	var req api.RestoreSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	steps := make([]core.Step, 0, len(req.Steps))
	for i, raw := range req.Steps {
		step, err := core.UnmarshalStep(raw)
		if err != nil {
			writeErr(w, fmt.Errorf("%w: restore step %d: %v", errInvalidBody, i+1, err))
			return
		}
		steps = append(steps, step)
	}
	info, err := s.openSession(id, req.Spec, steps, s.createJournal(req.Spec, steps))
	if err != nil {
		writeErr(w, err)
		return
	}
	s.log.Info("session restored via API", "id", info.ID, "dataset", info.Dataset,
		"steps", len(steps), "policy", info.Policy)
	api.WriteJSON(w, http.StatusCreated, info)
}
