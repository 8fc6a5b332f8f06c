package sinr

import (
	"math"
	"sync"

	"dcluster/internal/geom"
)

// This file implements the accumulating, cell-blocked Deliver path of the
// sparse engine — the dense-round counterpart of the dense engine's
// transposed row-accumulation. Per-listener scanning re-derives the same
// window geometry, bucket offsets, and straddling-cell classes for every
// listener of a cell; above the density threshold this path derives them
// once per listener cell, streams all of the cell's listeners through the
// shared window descriptors with register accumulation, and stores each
// listener's outcome into a flat, epoch-stamped listener-indexed array that
// a final in-order sweep emits from. Decisions go through the same decide
// chain as the per-listener path (conservative bounds, exact residual,
// dense-order fallback), so receptions are byte-identical across paths.

// accumDivisor sets the density threshold of the accumulating path: it is
// taken when |txs|·accumDivisor ≥ listeners. Below it, per-listener window
// derivation is cheaper than a full cell sweep; measured on the dense-round
// benchmark sweep (BenchmarkDeliverDense), the crossover sits near 1/16
// transmitting.
const accumDivisor = 16

// useAccumPath reports whether a grid round is dense enough for the
// accumulating cell-blocked path.
func useAccumPath(ntx, count int) bool {
	return ntx > smallTxCutoff && ntx*accumDivisor >= count
}

// winCell is one nonempty bucket cell of a listener-cell window: its
// transmitter range in the round's CSR bucket array and whether its offset
// straddles the far radius (feeding the per-listener bound refinement).
type winCell struct {
	start, end int32
	straddle   bool
}

// deliverAccum is the accumulating Deliver core, entered with the bucket CSR
// built. It processes listeners cell by cell in row-major order, then emits
// receptions in listener order from the flat outcome array, matching the
// per-listener path's output exactly.
func (f *SparseField) deliverAccum(txs []int, listeners []int, dst []Reception) ([]Reception, error) {
	s := f.scr
	var isL []bool
	if listeners != nil {
		isL = s.isL
		for _, u := range listeners {
			isL[u] = true
		}
	}

	var stopErr error
	rows := f.ny
	if f.workers >= 2 && f.n >= parallelCutoff && rows >= 2 {
		s.outSeq = false
		stripes := f.workers
		if stripes > rows {
			stripes = rows
		}
		for len(s.winPar) < stripes {
			s.winPar = append(s.winPar, make([]winCell, 0, cap(s.win)))
			s.outwPar = append(s.outwPar, make([]winCell, 0, cap(s.outw)))
			s.d2qPar = append(s.d2qPar, make([]float64, 0, cap(s.d2q)))
			s.stripeErr = append(s.stripeErr, nil)
		}
		per := (rows + stripes - 1) / stripes
		var wg sync.WaitGroup
		for w := 0; w < stripes; w++ {
			y0 := w * per
			y1 := y0 + per
			if y1 > rows {
				y1 = rows
			}
			if y0 >= y1 {
				continue
			}
			s.stripeErr[w] = nil
			wg.Add(1)
			// isL and txs are passed as arguments (not captured): a capture
			// would force the variables to the heap on every call, including
			// the sequential rounds that never spawn a goroutine.
			go func(w, y0, y1 int, txs []int, isL []bool) {
				defer wg.Done()
				s.winPar[w], s.outwPar[w], s.d2qPar[w], s.stripeErr[w] = f.accumRows(y0, y1, txs, isL, s.winPar[w], s.outwPar[w], s.d2qPar[w])
			}(w, y0, y1, txs, isL)
		}
		wg.Wait()
		for w := 0; w < stripes; w++ {
			if err := s.stripeErr[w]; err != nil {
				stopErr = err
				break
			}
		}
	} else {
		s.outSeq = true
		s.win, s.outw, s.d2q, stopErr = f.accumRows(0, rows, txs, isL, s.win, s.outw, s.d2q)
	}

	if stopErr != nil {
		// Aborted mid-accumulation: restore the listener bitmap and hand the
		// error up without emitting (the epoch stamp invalidates any partial
		// outcomes on the next round).
		if listeners != nil {
			for _, u := range listeners {
				isL[u] = false
			}
		}
		return dst, stopErr
	}

	// Emission sweep, in listener order. Listeners of skipped cells (no
	// transmitter anywhere in their 3×3 block, hence nothing in range) were
	// never stamped and receive nothing.
	if listeners == nil {
		for u := 0; u < f.n; u++ {
			if s.accStamp[u] == s.epoch && s.accSender[u] >= 0 {
				dst = append(dst, Reception{Receiver: u, Sender: int(s.accSender[u])})
			}
		}
	} else {
		for _, u := range listeners {
			if s.accStamp[u] == s.epoch && s.accSender[u] >= 0 {
				dst = append(dst, Reception{Receiver: u, Sender: int(s.accSender[u])})
			}
			isL[u] = false
		}
	}
	return dst, nil
}

// accumRows runs the cell-blocked accumulation over listener-cell rows
// [y0, y1), writing each processed listener's outcome into the epoch-stamped
// accSender array. win is the caller's reusable window-descriptor buffer
// (per parallel stripe), returned for capacity reuse.
//
// Per cell block it runs a three-tier cascade shared by all member
// listeners:
//
//  1. Quick pass — squared distances to every inner-3×3 transmitter, no
//     gains yet. If none lands inside the candidate ball (d² ≤ rangeQ2,
//     where every gain that can reach the β·noise floor lives), no sender
//     can decode and the listener stores "no" immediately.
//  2. Quick certain-no — exact gains of ALL inner transmitters (from the
//     recorded distances) lower-bound the near interference; any
//     transmitter outside the 3×3 block is at least a cell (≥ range) away,
//     so its gain is capped by β·noise, and the cell's count-weighted
//     window lower bound restLB (computed once per cell) covers the rest.
//     If max(best, β·noise) cannot clear β·(noise + nearQ + restLB − best),
//     no sender decodes. In dense rounds this resolves almost every
//     listener without touching the outer window or any tail bound.
//  3. Full scan — the remaining few re-scan the whole window through the
//     shared descriptors and go through the standard decide chain
//     (conservative bounds, tiered residual, dense-order fallback).
//
// Tiers 1–2 only ever conclude "no reception", and only under the same
// certSlack margins the decide chain uses, so the outcome is byte-identical
// to the per-listener path.
func (f *SparseField) accumRows(y0, y1 int, txs []int, isL []bool, win, outw []winCell, d2q []float64) ([]winCell, []winCell, []float64, error) {
	s := f.scr
	far2 := f.far * f.far
	rangeQ2 := f.rangeQ2
	refine := f.refineOK
	quickYes := refine && f.outOK
	cell2 := f.cell * f.cell
	beta, noise := f.params.Beta, f.params.Noise
	bn := beta * noise
	epoch := s.epoch
	for cy := y0; cy < y1; cy++ {
		for cx := 0; cx < f.nx; cx++ {
			c := cy*f.nx + cx
			// Skip to the cell's first member with something to decide — a
			// listener that does not transmit — before deriving any window:
			// most cells of a restricted or transmitter-heavy round hold
			// none. In a full round the first member usually qualifies.
			members := f.lidx.nodes[f.lidx.start[c]:f.lidx.start[c+1]]
			first := 0
			for first < len(members) {
				if u := members[first]; !s.isTx[u] && (isL == nil || isL[u]) {
					break
				}
				first++
			}
			members = members[first:]
			if len(members) == 0 {
				continue
			}
			// Cooperative cancellation, once per listener cell with a member
			// to decide: the per-cell work dominates the hook call, and
			// stripes bail without panicking (the caller aborts after Wait).
			if f.stop != nil {
				if err := f.stop(); err != nil {
					return win, outw, d2q, err
				}
			}
			wxlo, wxhi := max(cx-f.span, 0), min(cx+f.span, f.nx-1)
			wylo, wyhi := max(cy-f.span, 0), min(cy+f.span, f.ny-1)
			ixlo, ixhi := max(cx-1, 0), min(cx+1, f.nx-1)
			iylo, iyhi := max(cy-1, 0), min(cy+1, f.ny-1)
			// Inner 3×3 descriptors first (the quick pass iterates
			// win[:ninner]). Range pruning from the listener side: a
			// deliverable sender must lie within the transmission range,
			// which the inner block covers — no inner descriptors means no
			// member of this cell can receive, and the whole cell is
			// skipped, exactly mirroring the transmitter-centric skip
			// filter.
			win = win[:0]
			for wy := iylo; wy <= iyhi; wy++ {
				base := wy * f.nx
				trow := (wy-cy+fineHalf)*fineDim - cx + fineHalf
				for wx := ixlo; wx <= ixhi; wx++ {
					st, en := s.cellStart[base+wx], s.cellEnd[base+wx]
					if st == en {
						continue
					}
					win = append(win, winCell{st, en, refine && f.fineStr[trow+wx]})
				}
			}
			ninner := len(win)
			if ninner == 0 {
				continue
			}
			// One sweep of the outer window derives the shared rest bounds
			// and records the outer descriptors. It is deferred until the
			// first member survives the quick distance pass: cells whose
			// members all exit at the floor (no transmitter in the candidate
			// ball) never look past the inner block.
			var restLB, restUB float64
			outerSwept := false
			outerBuilt := false
			for _, u32 := range members {
				u := int(u32)
				if s.isTx[u] || (isL != nil && !isL[u]) {
					continue
				}
				p := f.pos[u]
				d2q = d2q[:0]
				mind2 := math.MaxFloat64
				vq := int32(-1)
				dup := false
				for _, w := range win[:ninner] {
					for k := w.start; k < w.end; k++ {
						d2 := geom.Dist2(f.pos[s.cellTx[k]], p)
						d2q = append(d2q, d2)
						if d2 < mind2 {
							mind2, vq, dup = d2, s.cellTx[k], false
						} else if d2 == mind2 {
							dup = true
						}
					}
				}
				if mind2 > rangeQ2 {
					// Every transmitter sits outside the candidate ball: its
					// real gain is below βN(1−certSlack), hence below βN even
					// after float rounding — nothing can decode.
					s.accSender[u] = -1
					s.accStamp[u] = epoch
					continue
				}
				if !outerSwept {
					outerSwept = true
					outw = outw[:0]
					for wy := wylo; wy <= wyhi; wy++ {
						base := wy * f.nx
						trow := (wy-cy+fineHalf)*fineDim - cx + fineHalf
						inRow := wy >= iylo && wy <= iyhi
						for wx := wxlo; wx <= wxhi; wx++ {
							if inRow && wx >= ixlo && wx <= ixhi {
								continue
							}
							st, en := s.cellStart[base+wx], s.cellEnd[base+wx]
							if st == en {
								continue
							}
							ti := trow + wx
							if refine {
								cnt := float64(en - st)
								restLB += cnt * f.nearLo[ti]
								restUB += cnt * f.nearHi[ti]
							}
							outw = append(outw, winCell{st, en, refine && f.fineStr[ti]})
						}
					}
				}
				if refine {
					var nearQ float64
					for _, d2 := range d2q {
						nearQ += gainFromDist2(f.params, d2)
					}
					gb := gainFromDist2(f.params, mind2)
					bu := gb
					if bn > bu {
						bu = bn
					}
					needQ := beta * (noise + nearQ + restLB - bu)
					if bu < needQ && needQ-bu > certSlack*needQ {
						s.accSender[u] = -1
						s.accStamp[u] = epoch
						continue
					}
					// Quick certain-yes: the nearest transmitter's gain is
					// exact (and the strict maximum: everything outside the
					// inner block is at least a cell away, farther than
					// mind2 < cell²), and the total interference is
					// upper-bounded without scanning the outer window —
					// inner exactly, window members by the count-weighted
					// nearHi sum, the out-of-window tail by the cell's
					// cached hiOut. If the nearest clears β times that
					// ceiling, it decodes; the margin rule matches the
					// decide chain's certain-yes exit.
					if quickYes && !dup && mind2 < cell2 {
						_, _, hiOut, _ := f.cellTailBounds(int32(c))
						needY := beta * (noise + nearQ + restUB + hiOut - gb)
						if gb >= needY && gb-needY > certSlack*needY {
							s.accSender[u] = vq
							s.accStamp[u] = epoch
							continue
						}
					}
				}
				if !outerBuilt {
					win = append(win, outw...)
					outerBuilt = true
				}
				a := scanAcc{bestV: -1}
				for _, w := range win {
					acc, rej := 0, 0
					for k := w.start; k < w.end; k++ {
						v := int(s.cellTx[k])
						d2 := geom.Dist2(f.pos[v], p)
						if d2 > far2 {
							rej++
							continue
						}
						g := gainFromDist2(f.params, d2)
						a.nearTotal += g
						acc++
						switch {
						case g > a.best:
							a.best, a.bestV, a.tied = g, v, false
						case g == a.best && a.bestV >= 0:
							a.tied = true
						}
					}
					if w.straddle {
						a.accStr += acc
						a.rejStr += rej
					}
				}
				sender := int32(-1)
				if v, ok := f.decide(u, txs, &a, f.gLoWinB, wxlo, wxhi, wylo, wyhi, far2); ok {
					sender = int32(v)
				}
				s.accSender[u] = sender
				s.accStamp[u] = epoch
			}
		}
	}
	return win, outw, d2q, nil
}
