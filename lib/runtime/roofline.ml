type t = {
  bandwidth_gbs : float;
  gflops : float;
}

(* STREAM triad a[i] = b[i] + s*c[i]; bandwidth counts the canonical
   3 × 8 bytes per element (write-allocate traffic is not charged, per
   STREAM convention).  The element type is pinned: a polymorphic
   Bigarray access compiles to a C call with a boxed float per element,
   which measures the allocator instead of the memory system. *)
type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let triad_pass (a : vec) (b : vec) (c : vec) n =
  let s = 3.0 in
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set a i
      (Bigarray.Array1.unsafe_get b i
      +. (s *. Bigarray.Array1.unsafe_get c i))
  done

let measure_bandwidth ~mib ~reps =
  let n = mib * 1024 * 1024 / 8 / 3 in
  let mk () =
    let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    Bigarray.Array1.fill a 1.0;
    a
  in
  let a = mk () and b = mk () and c = mk () in
  triad_pass a b c n (* warm-up: touch every page *);
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Telemetry.now_ns () in
    triad_pass a b c n;
    let dt = Telemetry.now_ns () - t0 in
    if float_of_int dt < !best then best := float_of_int dt
  done;
  ignore (Sys.opaque_identity (Bigarray.Array1.get a 0));
  float_of_int (3 * 8 * n) /. !best (* bytes/ns = GB/s *)

(* Peak scalar FLOP/s: 8 independent multiply-add chains in registers.
   OCaml's native compiler keeps the local floats unboxed; 8 chains are
   enough to cover FMA latency on current cores. *)
let flops_pass iters =
  let x0 = ref 1.0 and x1 = ref 1.1 and x2 = ref 1.2 and x3 = ref 1.3 in
  let x4 = ref 1.4 and x5 = ref 1.5 and x6 = ref 1.6 and x7 = ref 1.7 in
  let s = 0.999999 and t = 1e-9 in
  for _ = 1 to iters do
    x0 := (!x0 *. s) +. t;
    x1 := (!x1 *. s) +. t;
    x2 := (!x2 *. s) +. t;
    x3 := (!x3 *. s) +. t;
    x4 := (!x4 *. s) +. t;
    x5 := (!x5 *. s) +. t;
    x6 := (!x6 *. s) +. t;
    x7 := (!x7 *. s) +. t
  done;
  !x0 +. !x1 +. !x2 +. !x3 +. !x4 +. !x5 +. !x6 +. !x7

let measure_gflops ~reps =
  let iters = 4_000_000 in
  ignore (Sys.opaque_identity (flops_pass 1000));
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Telemetry.now_ns () in
    ignore (Sys.opaque_identity (flops_pass iters));
    let dt = Telemetry.now_ns () - t0 in
    if float_of_int dt < !best then best := float_of_int dt
  done;
  float_of_int (16 * iters) /. !best (* flops/ns = GFLOP/s *)

let measure ?(mib = 48) ?(reps = 3) () =
  { bandwidth_gbs = measure_bandwidth ~mib ~reps;
    gflops = measure_gflops ~reps }

let cached : t option ref = ref None
let cache_mutex = Mutex.create ()

let get () =
  Mutex.lock cache_mutex;
  let r =
    match !cached with
    | Some r -> r
    | None ->
      let r = measure () in
      cached := Some r;
      r
  in
  Mutex.unlock cache_mutex;
  r

let roof_gflops t ~intensity =
  Float.min t.gflops (intensity *. t.bandwidth_gbs)
