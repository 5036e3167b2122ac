package analysis

import (
	"go/ast"
	"go/token"
)

// PersistOrder enforces the flush-before-publish discipline: inside any
// function, a Region.Store/CAS marked //pmem:publish (the durable link or
// anchor store that makes payload reachable) must be preceded — in source
// order — by a Flush/FlushRange covering every earlier payload
// Store/WriteBytes, and by a Fence after the last flush. A publish with
// unflushed payload writes, or with flushed-but-unfenced ones, is the bug
// class the crash-injection sweeps exist to catch dynamically: a crash
// between the publish and the (missing) write-back recovers a reachable
// record with torn payload.
//
// Checkpoint calls are covered too: SaveFile, which writes the persisted
// image (a crash-sim heap's clean Close uses it; SAVE never does), with
// unflushed writes in scope is reported — the file would silently lack them —
// while SaveFileOnline, SAVE's one path, is its own publish point (write
// barrier + cut-over fence + atomic rename) needing no prior flush.
//
// The analysis is linear per function scope: statements are considered in
// source order, any Flush is credited against all earlier writes (the real
// code flushes whole node ranges), and branches are not path-sensitive.
// That is the cheap 80%: every real persist sequence in dstruct/ralloc is
// straight-line between payload preparation and publish, so drifts show up
// as exact diagnostics rather than model-checking counterexamples.
var PersistOrder = &Analyzer{
	Name: "persistorder",
	Doc:  "payload must be flushed and fenced before a //pmem:publish store",
	Run:  runPersistOrder,
}

func runPersistOrder(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Syntax {
		funcScopes(f, func(name string, body *ast.BlockStmt) {
			var (
				unflushed []token.Pos // payload writes not yet covered by a flush
				needFence bool        // a flush has happened with no fence after it
			)
			inspectShallow(body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method, ok := regionMethod(info, call)
				if !ok {
					return true
				}
				switch method {
				case "Store", "CAS":
					if pass.Notes.PublishAt(call.Pos()) {
						if len(unflushed) > 0 {
							first := pass.Pkg.Fset.Position(unflushed[0])
							pass.Reportf(call.Pos(),
								"publish %s with %d unflushed payload write(s) before it (first at line %d): flush and fence the payload before swinging the link",
								method, len(unflushed), first.Line)
						} else if needFence {
							pass.Reportf(call.Pos(),
								"publish %s after a flush with no Fence between them: the write-back is not ordered before the link swing", method)
						}
						unflushed = unflushed[:0]
						needFence = false
					} else {
						unflushed = append(unflushed, call.Pos())
					}
				case "WriteBytes", "Zero", "Add":
					unflushed = append(unflushed, call.Pos())
				case "Flush", "FlushRange":
					unflushed = unflushed[:0]
					needFence = true
				case "Fence":
					needFence = false
				case "Persist":
					// Persist flushes every dirty line and (simulated
					// write-back being synchronous) needs no separate fence.
					unflushed = unflushed[:0]
					needFence = false
				case "SaveFile":
					// The quiesced checkpoint writes the *shadow* image: a
					// write not yet flushed is silently absent from the
					// file, so a checkpoint taken here would lose data the
					// caller already acknowledged. Either Persist first or
					// take the online path.
					if len(unflushed) > 0 {
						first := pass.Pkg.Fset.Position(unflushed[0])
						pass.Reportf(call.Pos(),
							"SaveFile checkpoints the shadow image with %d unflushed write(s) before it (first at line %d): call Persist first, or use SaveFileOnline whose write barrier captures live stores",
							len(unflushed), first.Line)
					}
				case "SaveFileOnline":
					// The online checkpoint is its own publish point: the
					// write barrier plus cut-over fence capture the
					// volatile image regardless of flush state, and the
					// fsync + rename + directory-sync sequence publishes
					// it durably. No prior flush or fence is required —
					// and the region's lines stay dirty afterwards, so the
					// tracked flush state is deliberately left untouched.
				}
				return true
			})
			_ = name
		})
	}
}
