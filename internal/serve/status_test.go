package serve

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"neurometer/internal/guard"
)

func TestHTTPStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, http.StatusOK},
		{guard.Invalid("bad tx"), http.StatusBadRequest},
		{guard.Infeasible("timing"), http.StatusUnprocessableEntity},
		{guard.NonFinite("area_mm2", 0), http.StatusInternalServerError},
		{fmt.Errorf("candidate: %w", guard.ErrTimeout), http.StatusGatewayTimeout},
		{fmt.Errorf("sweep: %w", guard.ErrCanceled), StatusClientClosedRequest},
		{fmt.Errorf("eval: %w", guard.ErrCandidatePanic), http.StatusInternalServerError},
		{errors.New("plain"), http.StatusInternalServerError},
		// A joined cancel and config failure maps by the first taxonomy
		// match, invalid-config, as guard.Kind and guard.ExitCode do.
		{errors.Join(guard.Invalid("x"), guard.ErrCanceled), http.StatusBadRequest},
	}
	for _, c := range cases {
		if got := HTTPStatus(c.err); got != c.want {
			t.Errorf("HTTPStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
