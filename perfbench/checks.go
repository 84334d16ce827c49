package main

import (
	"fmt"
	"math"

	"github.com/mar-hbo/hbo/internal/mesh"
)

// The correctness checks every run applies to the program's outputs. Each
// returns nil when the output is right; a non-nil error fails the call it
// belongs to, counts in `failed`, and makes the run exit non-zero.

// checkPoint rejects a served configuration outside the BO domain.
func checkPoint(p []float64) error {
	if len(p) != domain.Dim() || !domain.Contains(p) {
		return fmt.Errorf("served point %v outside the %d-resource domain", p, domain.N)
	}
	return nil
}

// checkCount rejects a reply whose observation count disagrees with the
// client's own, which is how lost or doubled observations show, including
// across eviction and restore.
func checkCount(op string, server, client int) error {
	if server != client {
		return fmt.Errorf("%s reply holds %d observations, client recorded %d", op, server, client)
	}
	return nil
}

// checkMesh rejects a decimated mesh that fails validation or whose
// triangle count differs from the set-up reference for its key.
func checkMesh(m *mesh.Mesh, reported, want int) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("decimated mesh invalid: %w", err)
	}
	if got := m.TriangleCount(); got != want || reported != want {
		return fmt.Errorf("decimated mesh has %d triangles (reply says %d), reference %d", got, reported, want)
	}
	return nil
}

// checkDigest rejects a paper-loop trajectory whose digest differs from
// the one kept with the benchmark.
func checkDigest(name, got, want string) error {
	if got != want {
		return fmt.Errorf("%s trajectory digest %s, kept digest %s", name, got, want)
	}
	return nil
}

// checkReplay rejects a served point the reference replay does not
// reproduce bit for bit.
func checkReplay(id string, ord int, served, replayed []float64) error {
	if len(served) != len(replayed) {
		return fmt.Errorf("session %s suggest %d: served %d-dim point, replay %d-dim", id, ord, len(served), len(replayed))
	}
	for i := range served {
		if math.Float64bits(served[i]) != math.Float64bits(replayed[i]) {
			return fmt.Errorf("session %s suggest %d: served %v, replay %v", id, ord, served, replayed)
		}
	}
	return nil
}
