module Grid = Repro_grid.Grid
module Buf = Repro_grid.Buf
module A1 = Bigarray.Array1

(* Interior sizes per dimension.  Grids carry one ghost layer per side,
   so the interior along dim k is [1 .. extents.(k) - 2]; rectangular
   interiors are supported throughout (a grid with any extent < 3 has no
   interior and is rejected loudly rather than silently looped over). *)
let interior_sizes g =
  let ext = Grid.extents g in
  Array.iter
    (fun e ->
      if e < 3 then
        invalid_arg
          (Printf.sprintf "Verify: extent %d leaves no interior" e))
    ext;
  Array.map (fun e -> e - 2) ext

(* The kernels below read through [A1.unsafe_get] on flat row-major
   offsets, so every extent they rely on is validated up front: the
   partner grid must match [v] exactly, every extent must leave an
   interior, and the rank must be 2 or 3.  The 5-/7-point expression
   and the row-major visiting order are those of the indexed form, so
   results are bit-identical to it. *)
let check_operands ~what ~partner ~v ~w =
  if Grid.extents v <> Grid.extents w then
    invalid_arg (Printf.sprintf "Verify.%s: v and %s extents differ" what partner);
  ignore (interior_sizes v);
  match Grid.dims v with
  | 2 | 3 -> ()
  | _ -> invalid_arg (Printf.sprintf "Verify.%s: rank must be 2 or 3" what)

(* [4v − Σ neighbours] at flat offset [p] (row stride [s0]), and its
   3D counterpart (plane stride [s0], row stride [s1]); inlined, so the
   float never leaves a register *)
let[@inline] lap2 (a : Buf.data) p s0 =
  (4.0 *. A1.unsafe_get a p)
  -. A1.unsafe_get a (p - s0) -. A1.unsafe_get a (p + s0)
  -. A1.unsafe_get a (p - 1) -. A1.unsafe_get a (p + 1)

let[@inline] lap3 (a : Buf.data) p s0 s1 =
  (6.0 *. A1.unsafe_get a p)
  -. A1.unsafe_get a (p - s0) -. A1.unsafe_get a (p + s0)
  -. A1.unsafe_get a (p - s1) -. A1.unsafe_get a (p + s1)
  -. A1.unsafe_get a (p - 1) -. A1.unsafe_get a (p + 1)

let apply_poisson ~n ~v ~out =
  check_operands ~what:"apply_poisson" ~partner:"out" ~v ~w:out;
  let invhsq = float_of_int (n * n) in
  let a = v.Grid.buf.Buf.data and o = out.Grid.buf.Buf.data in
  let e = v.Grid.extents in
  if Array.length e = 2 then begin
    let s0 = e.(1) in
    for i = 1 to e.(0) - 2 do
      for p = (i * s0) + 1 to (i * s0) + s0 - 2 do
        A1.unsafe_set o p (invhsq *. lap2 a p s0)
      done
    done
  end
  else begin
    let s1 = e.(2) in
    let s0 = e.(1) * s1 in
    for i = 1 to e.(0) - 2 do
      for j = 1 to e.(1) - 2 do
        let row = (i * s0) + (j * s1) in
        for p = row + 1 to row + s1 - 2 do
          A1.unsafe_set o p (invhsq *. lap3 a p s0 s1)
        done
      done
    done
  end

(* Fused [f − A v]: no temporary grid, and the running sum is a local
   float ref no closure captures, so the loop does not allocate. *)
let residual_l2 ~n ~v ~f =
  check_operands ~what:"residual_l2" ~partner:"f" ~v ~w:f;
  let invhsq = float_of_int (n * n) in
  let a = v.Grid.buf.Buf.data and fd = f.Grid.buf.Buf.data in
  let e = v.Grid.extents in
  let sum = ref 0.0 in
  if Array.length e = 2 then begin
    let s0 = e.(1) in
    for i = 1 to e.(0) - 2 do
      for p = (i * s0) + 1 to (i * s0) + s0 - 2 do
        let r = A1.unsafe_get fd p -. (invhsq *. lap2 a p s0) in
        sum := !sum +. (r *. r)
      done
    done
  end
  else begin
    let s1 = e.(2) in
    let s0 = e.(1) * s1 in
    for i = 1 to e.(0) - 2 do
      for j = 1 to e.(1) - 2 do
        let row = (i * s0) + (j * s1) in
        for p = row + 1 to row + s1 - 2 do
          let r = A1.unsafe_get fd p -. (invhsq *. lap3 a p s0 s1) in
          sum := !sum +. (r *. r)
        done
      done
    done
  end;
  let count = Array.fold_left (fun acc x -> acc * (x - 2)) 1 e in
  sqrt (!sum /. float_of_int count)

let error_l2 ~v ~exact =
  let sum = ref 0.0 and count = ref 0 in
  Grid.iter_interior v ~f:(fun idx value ->
      let e = value -. exact idx in
      sum := !sum +. (e *. e);
      incr count);
  if !count = 0 then 0.0 else sqrt (!sum /. float_of_int !count)

(* --- Method-of-manufactured-solutions convergence verification --- *)

let convergence_study ~solve ~exact ~ns =
  List.map
    (fun n ->
      let v = solve ~n in
      (n, error_l2 ~v ~exact:(exact ~n)))
    ns

let pairwise_orders samples =
  let rec go = function
    | (nc, ec) :: ((nf, ef) :: _ as rest) ->
      if nf <= nc then invalid_arg "Verify: ns must be strictly increasing";
      if ec <= 0.0 || ef <= 0.0 then
        invalid_arg "Verify: non-positive error in convergence study";
      (* e ∝ h^p = n^{-p}  ⇒  p = log(e_c/e_f) / log(n_f/n_c) *)
      (log (ec /. ef) /. log (float_of_int nf /. float_of_int nc)) :: go rest
    | _ -> []
  in
  go samples

let observed_order samples =
  match pairwise_orders samples with
  | [] -> invalid_arg "Verify.observed_order: need at least two samples"
  | orders ->
    List.fold_left ( +. ) 0.0 orders /. float_of_int (List.length orders)
