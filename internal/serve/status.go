package serve

import (
	"errors"
	"net/http"

	"neurometer/internal/guard"
)

// StatusClientClosedRequest is the non-standard 499 status (popularized by
// nginx) for requests abandoned by the client: the handler's context was
// canceled before the evaluation finished, through no fault of the server.
const StatusClientClosedRequest = 499

// HTTPStatus maps an error onto the HTTP status the serving layer returns
// for it. It classifies through the same errors.Is chains as guard.Kind
// and guard.ExitCode, so a given failure carries the same identity as an
// HTTP status, an exit code and a kind= log line:
//
//	nil                     200 OK
//	guard.ErrInvalidConfig  400 Bad Request         (the request can never succeed)
//	guard.ErrInfeasible     422 Unprocessable Entity (well-formed, no feasible chip)
//	guard.ErrTimeout        504 Gateway Timeout      (deadline expired mid-evaluation)
//	guard.ErrCanceled       499                      (client went away)
//	guard.ErrUnavailable    503 Service Unavailable  (transient; retry with backoff)
//	guard.ErrNonFinite      500 Internal Server Error (model produced NaN/Inf)
//	guard.ErrCandidatePanic 500 Internal Server Error (recovered model panic)
//	guard.ErrCorrupt        500 Internal Server Error (persisted state failed
//	                                                   integrity verification —
//	                                                   callers degrade, never 4xx)
//	anything else           500 Internal Server Error
//
// The order mirrors guard.Kind: an error wrapping several taxonomy members
// maps by the first match.
func HTTPStatus(err error) int {
	switch {
	case err == nil:
		return http.StatusOK
	case errors.Is(err, guard.ErrInvalidConfig):
		return http.StatusBadRequest
	case errors.Is(err, guard.ErrInfeasible):
		return http.StatusUnprocessableEntity
	case errors.Is(err, guard.ErrNonFinite):
		return http.StatusInternalServerError
	case errors.Is(err, guard.ErrTimeout):
		return http.StatusGatewayTimeout
	case errors.Is(err, guard.ErrCanceled):
		return StatusClientClosedRequest
	case errors.Is(err, guard.ErrUnavailable):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}
