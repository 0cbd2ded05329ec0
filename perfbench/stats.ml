(* Order statistics over timing samples.

   The benchmark runs on a few cores of a shared host whose speed
   switches every few seconds between states up to 1.5x apart, and the
   share of a run spent in the slow state differs from run to run.  How
   a figure behaves under that depends on how wide the distribution of
   its samples is.  The served requests of serve-mixed vary widely in
   size, so their whole-run median and p98 move smoothly with the slow
   share (9-22 % from run to run in most sets of runs).  Every solve of classb-2d-v-ckpt
   does the same work, so its samples gather in two narrow clumps, one
   per state; their median jumps between the clumps (up to 35 % from run
   to run) and so does their mean, while the fastest solve, the one the
   host slowed least, stays within 2-16 %. *)

(* Nearest-rank percentile, q in [0, 100]. *)
let percentile xs q =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let k = int_of_float (Float.ceil (q /. 100.0 *. float n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = percentile xs 50.0

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)
