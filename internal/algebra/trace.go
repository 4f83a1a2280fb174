package algebra

import (
	"fmt"

	"repro/internal/obs"
)

// StateReporter is implemented by sources that can report an availability
// state ("closed", "open", "half-open" for the mediator's circuit-breaker
// guards). Traced evaluation annotates source spans with it so a profile
// shows which pushes ran against a degraded source.
type StateReporter interface {
	SourceState() string
}

// OpKind names an operator for tracing and profiling. The type switch is
// exhaustive over the algebra (yat-lint enforces that), so a new operator
// cannot silently profile as "unknown".
func OpKind(op Op) string {
	switch op.(type) {
	case *Doc:
		return "Doc"
	case *Bind:
		return "Bind"
	case *Select:
		return "Select"
	case *Project:
		return "Project"
	case *MapExpr:
		return "MapExpr"
	case *Join:
		return "Join"
	case *DJoin:
		return "DJoin"
	case *Union:
		return "Union"
	case *Intersect:
		return "Intersect"
	case *Distinct:
		return "Distinct"
	case *Group:
		return "Group"
	case *Sort:
		return "Sort"
	case *SourceQuery:
		return "SourceQuery"
	case *Literal:
		return "Literal"
	case *TreeOp:
		return "Tree"
	default:
		return fmt.Sprintf("%T", op)
	}
}

// traceCounts folds source-work counts into the ambient span, if tracing.
// Every Stats counter mutation in this package pairs with a traceCounts call
// on the span the work happened under — that is what makes a trace's
// TreeCounts sum to the global Stats exactly (TestProfileSumsMatchStats).
func traceCounts(ctx *Context, c obs.Counts) {
	if ctx.Trace != nil {
		ctx.Trace.AddCounts(c)
	}
}

// traceAnnotate attaches a key/value annotation to the ambient span, if
// tracing.
func traceAnnotate(ctx *Context, key, value string) {
	if ctx.Trace != nil {
		ctx.Trace.Annotate(key, value)
	}
}
