package cluster

import (
	"fmt"

	"aeolia/internal/faultinject"
)

// Fault-injection sites. The failover matrix drives the cluster through
// crashes and partitions at three named points of the replicated-write path:
//
//   - PointPreAppend: the leader received a client write but has not yet
//     appended/fanned it out — the write must simply be retried elsewhere.
//   - PointPostQuorum: the entry reached quorum and committed on the leader,
//     but the acknowledgement has not been sent — the write must survive the
//     failover even though the client will retry it.
//   - PointPreApply: the entry is committed but not yet applied to the
//     node's block store — recovery must re-apply it idempotently.
//
// Site strings compose as "raft:<kind>:<point>:<node>", e.g.
// "raft:crash:post-quorum:2". Kinds: "crash" (CrashAndReset: the node drops
// off the fabric, loses volatile state, and restarts from stable storage
// after RestartDelay), "part" (symmetric partition: both link directions of
// the node go down for partitionFor), and "part1" (asymmetric partition:
// only the node's outbound links go down — it hears the cluster but cannot
// answer).
const (
	PointPreAppend  = "pre-append"
	PointPostQuorum = "post-quorum"
	PointPreApply   = "pre-apply"
)

// Fault kinds.
const (
	KindCrash    = "crash"
	KindPartSym  = "part"
	KindPartAsym = "part1"
)

// Site builds the fault site string for kind at point on node.
func Site(kind, point string, node int) string {
	return fmt.Sprintf("raft:%s:%s:%d", kind, point, node)
}

// CrashAndReset arms a one-shot crash of node at the named point: the plan
// fires the next time the node passes the point (typically as PG leader).
// Arming targets the next occurrence rather than the first, so a test may
// warm the cluster up, identify the leader, and only then arm its crash.
func CrashAndReset(p *faultinject.Plan, point string, node int) {
	armNext(p, Site(KindCrash, point, node))
}

// Partition arms a one-shot partition of node at the named point; symmetric
// cuts both directions, asymmetric only the node's outbound links. Like
// CrashAndReset it fires on the site's next occurrence.
func Partition(p *faultinject.Plan, point string, node int, symmetric bool) {
	kind := KindPartSym
	if !symmetric {
		kind = KindPartAsym
	}
	armNext(p, Site(kind, point, node))
}

// armNext installs a fire-on-next-occurrence rule: the plan counts every
// consultation of a site whether or not a rule is installed, so "once" must
// be relative to the site's current occurrence count.
func armNext(p *faultinject.Plan, site string) {
	p.On(site, faultinject.At(p.Occurrences(site)+1))
}
