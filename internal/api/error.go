package api

import "fmt"

// ErrorCode is the stable machine-readable classification in every error
// envelope. Codes — not messages, not statuses — are the contract a routing
// tier and a typed client dispatch on: an HTTP 404 alone cannot distinguish
// "this session does not exist anywhere" from "this replica does not have it",
// and a 500 alone cannot distinguish "safe to retry" from "a retry would
// spend α-wealth twice".
type ErrorCode string

// The closed set of error codes. Handlers map every domain error onto exactly
// one of these; anything unmapped falls back to CodeBadRequest (client-shaped
// paths) or CodeInternal (panics).
const (
	// CodeSessionNotFound: the session ID does not exist (never created,
	// deleted, or expired by the idle sweeper).
	CodeSessionNotFound ErrorCode = "session_not_found"
	// CodeSessionExists: restoring onto an ID that is already live.
	CodeSessionExists ErrorCode = "session_exists"
	// CodeDatasetUnknown: the named dataset is not registered.
	CodeDatasetUnknown ErrorCode = "dataset_unknown"
	// CodeDatasetExists: registering over an existing dataset name.
	CodeDatasetExists ErrorCode = "dataset_exists"
	// CodeVizNotFound: a compare names a visualization ID the session lacks.
	CodeVizNotFound ErrorCode = "viz_not_found"
	// CodeHypothesisNotFound: a star names a hypothesis ID the session lacks.
	CodeHypothesisNotFound ErrorCode = "hypothesis_not_found"
	// CodeWealthExhausted: the session's α-wealth cannot fund further tests;
	// the exploration is over (Section 5.8 of the paper), not failed.
	CodeWealthExhausted ErrorCode = "wealth_exhausted"
	// CodeStepInvalid: the request body does not decode into a valid step (or
	// endpoint-specific document) — malformed JSON, unknown op, bad predicate.
	CodeStepInvalid ErrorCode = "step_invalid"
	// CodeJoinFansOut: a join step names a key that two or more rows of the
	// right dataset hold. The join would copy the session's rows, and every
	// later test would count the copies as independent units, so it is
	// refused and the session is unchanged.
	CodeJoinFansOut ErrorCode = "join_fans_out"
	// CodeBadRequest: any other client-shaped failure (bad path value, missing
	// field, unparsable query parameter).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: no route matches the path at all.
	CodeNotFound ErrorCode = "not_found"
	// CodeMethodNotAllowed: the path exists under another method.
	CodeMethodNotAllowed ErrorCode = "method_not_allowed"
	// CodeJournalFailed: the step was applied — wealth is spent irrevocably —
	// but could not be made durable. NEVER retried: a retry would invest
	// α-wealth twice for one exploration action.
	CodeJournalFailed ErrorCode = "journal_failed"
	// CodeInternal: a handler panicked; the request's effect is unknown.
	CodeInternal ErrorCode = "internal"
	// CodeNodeUnavailable: a cluster router could not reach any replica that
	// may own the resource. The request was never applied, so it is the one
	// code that can be safely re-sent: the router vouches the request never
	// reached a session. Everything else either already happened
	// (journal_failed), will deterministically fail again (the 4xx codes), or
	// has unknown effect (internal).
	CodeNodeUnavailable ErrorCode = "node_unavailable"
)

// ErrorBody is the JSON error envelope: a human-readable message plus the
// machine-readable code. Every non-2xx response carries one.
type ErrorBody struct {
	Error string    `json:"error"`
	Code  ErrorCode `json:"code"`
}

// Error is a decoded non-2xx response as the typed client surfaces it.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Code is the envelope's machine-readable code.
	Code ErrorCode
	// Message is the envelope's human-readable message.
	Message string
}

func (e *Error) Error() string {
	return fmt.Sprintf("HTTP %d (%s): %s", e.Status, e.Code, e.Message)
}

// ErrorFromStatus recovers an *Error's code when a response had no parseable
// envelope (a proxy in the path, a truncated body): the status class alone.
func ErrorFromStatus(status int, message string) *Error {
	code := CodeBadRequest
	switch {
	case status == 404:
		code = CodeNotFound
	case status == 405:
		code = CodeMethodNotAllowed
	case status >= 500:
		code = CodeInternal
	}
	return &Error{Status: status, Code: code, Message: message}
}
