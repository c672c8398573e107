package server

import (
	"fmt"
	"net/http"

	"aware/internal/api"
	"aware/internal/core"
)

// handleRestoreSession installs a session under an explicit ID from its
// creation spec plus step log — the cluster failover path: a router that holds
// a dead node's journal ships it here and the successor rebuilds the exact
// session with core.Replay. With an empty step list it is placement-first
// creation: the router picks the ID and the owning node, the node starts a
// fresh session.
//
// Ordering: the session is installed first (Restore atomically reserves the
// ID, failing with session_exists if it is live), and only then is the
// journal written. The reverse order would let two racing restores truncate
// the journal of the one that won. If journaling fails after the session is
// installed, the install is rolled back and the request fails — the caller
// must not believe a session is durable when it is not.
func (s *Server) handleRestoreSession(w http.ResponseWriter, r *http.Request) {
	id, err := sessionID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	var req api.RestoreSessionRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Spec.Dataset == "" {
		api.WriteError(w, http.StatusBadRequest, api.CodeBadRequest, "missing dataset name in restore spec")
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
	table, err := s.registry.Get(req.Spec.Dataset)
	if err != nil {
		writeErr(w, err)
		return
	}
	opts, err := req.Spec.Options()
	if err != nil {
		writeErr(w, err)
		return
	}
	if sel, err := s.registry.Cache(req.Spec.Dataset); err == nil {
		opts.Selections = sel
	}
	opts.Catalog = s.registry
	sess, err := core.Replay(table, opts, steps)
	if err != nil {
		writeErr(w, err)
		return
	}
	info, err := s.manager.Restore(id, req.Spec, sess)
	if err != nil {
		writeErr(w, err)
		return
	}
	if s.journal != nil {
		err := s.journal.Create(id, req.Spec)
		if err == nil {
			for _, step := range steps {
				if err = s.journal.Append(id, step); err != nil {
					break
				}
			}
		}
		if err != nil {
			s.manager.Delete(id)
			s.journal.Remove(id)
			writeErr(w, err)
			return
		}
	}
	s.log.Info("session restored via API", "id", info.ID, "dataset", info.Dataset,
		"steps", len(steps), "policy", info.Policy)
	api.WriteJSON(w, http.StatusCreated, info)
}
