package qt

import "repro/internal/negf"

// SigmaState is the scattering self-energy state (Σ≷ and Π≷) of a
// finished run without ranks — the reusable artifact a near-identical
// simulation warm-starts from instead of the cold Σ = 0 (ballistic)
// first guess. Such runs capture it in Result.FinalState; the qtd result
// cache keeps the converged states and seeds same-structure
// neighbouring-bias requests from them.
type SigmaState = negf.SigmaState
