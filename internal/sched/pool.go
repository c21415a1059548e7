package sched

// Priority orders pools for resource trade-offs (§3.3.3).
type Priority int

// Pool priorities, highest first.
const (
	PriorityCritical Priority = iota
	PriorityNormal
	PriorityBatch
)

// String names the priority.
func (p Priority) String() string {
	switch p {
	case PriorityCritical:
		return "critical"
	case PriorityNormal:
		return "normal"
	default:
		return "batch"
	}
}

// UseCase labels what a logical pool serves ("each cluster has multiple
// logical 'pools' of computing defined by use case and priority",
// §3.3.3). The pools themselves live in internal/cluster.
type UseCase int

// Pool use cases.
const (
	UseUpload UseCase = iota
	UseLive
)

// String names the use case.
func (u UseCase) String() string {
	if u == UseLive {
		return "live"
	}
	return "upload"
}
