(* serve-mixed: an in-process solver service with its default
   configuration (interpreter backend, one worker, one domain) and two
   closed-loop clients, each its own tenant.  Each client's request list
   is drawn from the seed before the run.

   The request mix is the one the repository's traffic campaign
   (bench/traffic.ml) sends for its well-behaved tenants: 2-D V-4-4-4
   solves with n = 32 / 64 / 128 drawn 70 / 28 / 2 %, variant opt+ /
   opt drawn 80 / 20 %, and 1 or 2 cycles.  That mix is synthetic, not
   taken from a recorded request log.  Some requests of the 2 % n = 128
   tail here carry one of a fixed set of rare shapes (a smoothing
   schedule no other request uses), each once, so each of them misses
   the plan cache; the other tail requests ask for the common schedule.
   Every run thus misses on the same shapes, and the plan cache, which
   the server never trims, ends every run holding the same entries. *)

open Repro_core
module Telemetry = Repro_runtime.Telemetry
module Roofline = Repro_runtime.Roofline
module Cycle = Repro_mg.Cycle
module Problem = Repro_mg.Problem
module Solver = Repro_mg.Solver
module Guard = Repro_mg.Guard
module Verify = Repro_mg.Verify
module Serve = Repro_mg.Serve

let clients = 2
let dims = Serve.default_request.Serve.rq_dims
let cshape = Serve.default_request.Serve.rq_shape
let smoothing = Serve.default_request.Serve.rq_smoothing

(* Residuals of the served solve and of the naive-plan reference differ
   only by the arithmetic order of the two plans. *)
let residual_rel_budget = 1e-8

type shape = {
  n : int;
  smoothing : int * int * int;
  variant : string;
  cycles : int;
}

let tail_n ~quick = if quick then 64 else 128

(* The shapes that hit the plan cache once warmed up; one warm-up
   request each at set-up. *)
let common =
  List.concat_map
    (fun n ->
      List.map (fun variant -> { n; smoothing; variant; cycles = 1 })
        [ "opt+"; "opt" ])
    [ 32; 64 ]

(* The rare shapes: every smoothing schedule with 1-4 pre- and
   post-smoothing and 0-4 coarsest-level steps, except the common one,
   each with a fixed variant (every fifth opt, the rest opt+) and cycle
   count, so the set does not depend on the seed. *)
let rare_shapes ~quick =
  let r = List.init 4 (fun i -> i + 1) in
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b -> List.map (fun c -> (a, b, c)) r)
        (0 :: r))
    r
  |> List.filter (fun s -> s <> smoothing)
  |> List.mapi (fun i sm ->
         { n = tail_n ~quick;
           smoothing = sm;
           variant = (if i mod 5 = 0 then "opt" else "opt+");
           cycles = 1 + (i mod 2) })

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Requests between two rare shapes, counted over both clients: the
   rare shapes are spread over the first 79 x 120 = 9480 requests, which
   even a slow host serves within a run, so every run misses on all of
   them. *)
let rare_spacing = 120

(* The clients' request lists, drawn in turn so both reach the rare
   shapes at the same pace.  The tail takes the rare shapes in a
   shuffled order, each once and no sooner than [rare_spacing] requests
   after the one before; its other draws ask for the common schedule. *)
let request_lists ~quick ~seed ~length =
  let st = Random.State.make [| seed; 17 |] in
  let rare = Array.of_list (rare_shapes ~quick) in
  shuffle st rare;
  let next_rare = ref 0 in
  let draw i =
    let r = Random.State.int st 100 in
    let variant = if Random.State.int st 10 < 8 then "opt+" else "opt" in
    let cycles = 1 + Random.State.int st 2 in
    if r < 70 then { n = 32; smoothing; variant; cycles }
    else if r < 98 then { n = 64; smoothing; variant; cycles }
    else if !next_rare < Array.length rare && i >= !next_rare * rare_spacing
    then begin
      incr next_rare;
      rare.(!next_rare - 1)
    end
    else { n = tail_n ~quick; smoothing; variant; cycles }
  in
  let lists = Array.make_matrix clients length (List.hd common) in
  for i = 0 to length - 1 do
    for c = 0 to clients - 1 do
      lists.(c).(i) <- draw ((i * clients) + c)
    done
  done;
  lists

let request ~tenant s =
  { Serve.default_request with
    Serve.rq_tenant = tenant;
    rq_dims = dims;
    rq_n = s.n;
    rq_shape = cshape;
    rq_smoothing = s.smoothing;
    rq_variant = s.variant;
    rq_cycles = s.cycles;
    rq_tol = None }

let cycle_config s = Cycle.default ~dims ~shape:cshape ~smoothing:s.smoothing

let now = Telemetry.now_ns
let secs t0 = float (now () - t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Set-up: server start plus one warm-up request per common shape       *)

let setup_once ~config =
  let t0 = now () in
  let sv = Serve.create ~config () in
  let ok =
    List.for_all
      (fun s ->
        (Serve.solve sv (request ~tenant:"warmup" s)).Serve.rs_status
        = Serve.Ok)
      common
  in
  (sv, secs t0, ok)

(* ------------------------------------------------------------------ *)
(* The timed phase                                                     *)

type answer = {
  shape : shape;
  resp : Serve.response;
  submit_ns : int;
  submitted_ns : int;  (** [Serve.submit] returned *)
  done_ns : int;  (** [Serve.await] returned *)
}

let latency a = float (a.done_ns - a.submit_ns) *. 1e-9

(* With [inject], client 0's first request carries the server's chaos
   hook and a one-cycle budget: its optimized plan faults, Guard reruns
   the cycle on the naive fallback plan, and the answer is still [Ok]. *)
let phase sv lists ~seconds ~cursor ~inject =
  let t0 = now () in
  let results = Array.make clients [] in
  let client c =
    let rec loop acc =
      if secs t0 >= seconds then results.(c) <- acc
      else begin
        let s = lists.(c).(cursor.(c) mod Array.length lists.(c)) in
        let faulty = inject && c = 0 && acc = [] in
        let s = if faulty then { s with cycles = 1 } else s in
        cursor.(c) <- cursor.(c) + 1;
        let rq = request ~tenant:(Printf.sprintf "client-%d" c) s in
        let rq = if faulty then { rq with Serve.rq_fault = Some "nan" } else rq in
        let submit_ns = now () in
        let ticket = Serve.submit sv rq in
        let submitted_ns = now () in
        let resp = Serve.await ticket in
        loop ({ shape = s; resp; submit_ns; submitted_ns; done_ns = now () }
              :: acc)
      end
    in
    loop []
  in
  let threads = List.init clients (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  let wall = secs t0 in
  (List.concat (Array.to_list results), wall)

(* ------------------------------------------------------------------ *)
(* Output check: the naive plan on the interpreter, once per shape      *)

type reference = {
  ref_residual : float;
  ref_cycles : int;
  ir_s : float;
  plan_s : float;
  check_s : float;
  residual_s : float;
}

let reference s =
  let cfg = cycle_config s in
  let n = s.n in
  let cycles = s.cycles in
  let opts = Option.get (Options.variant_of_string s.variant) in
  (* the requested plan, timed layer by layer as the server builds it *)
  let t0 = now () in
  let pipe = Cycle.build cfg in
  let ir_s = secs t0 in
  let t0 = now () in
  let plan = Plan.build pipe ~opts ~n ~params:(Cycle.params cfg ~n) in
  let plan_s = secs t0 in
  let t0 = now () in
  Plan_check.check_exn plan;
  let check_s = secs t0 in
  let problem = Problem.poisson ~dims ~n in
  let policy =
    { Guard.default_policy with
      Guard.tol = None;
      max_cycles = cycles;
      primary_retries = Serve.default_config.Serve.sv_primary_retries }
  in
  let r =
    Exec.with_runtime (fun rt ->
        Guard.run ~policy
          ~primary:(Solver.polymg_stepper cfg ~n ~opts:Options.naive ~rt)
          ~problem ())
  in
  let t0 = now () in
  ignore (Verify.residual_l2 ~n ~v:r.Guard.v ~f:problem.Problem.f);
  { ref_residual = r.Guard.residual;
    ref_cycles = List.length r.Guard.stats;
    ir_s;
    plan_s;
    check_s;
    residual_s = secs t0 }

(* The fault events and fallback cycles Serve reports in [rs_detail]. *)
let fault_counts detail =
  Scanf.sscanf_opt detail "%_s@; %d fault event(s), %d fallback cycle(s)"
    (fun faults fallbacks -> (faults, fallbacks))

(* Why answer [a] fails its check, if it does. *)
let failure ~perturb refs a =
  let r = Hashtbl.find refs a.shape in
  let resp = a.resp in
  let got =
    if perturb then resp.Serve.rs_residual *. 1.5 else resp.Serve.rs_residual
  in
  if resp.Serve.rs_status <> Serve.Ok then
    Some ("status " ^ Serve.status_name resp.Serve.rs_status)
  else
    match fault_counts resp.Serve.rs_detail with
    | None -> Some ("no fault counts in detail: " ^ resp.Serve.rs_detail)
    | Some (faults, fallbacks) when faults > 0 || fallbacks > 0 ->
      Some
        (Printf.sprintf "%d fault event(s), %d fallback cycle(s)" faults
           fallbacks)
    | Some _ ->
      if resp.Serve.rs_cycles <> r.ref_cycles then
        Some
          (Printf.sprintf "%d cycles, reference %d" resp.Serve.rs_cycles
             r.ref_cycles)
      else if
        not
          (Float.abs (got -. r.ref_residual)
          <= residual_rel_budget *. r.ref_residual)
      then
        Some
          (Printf.sprintf "residual %.17g, reference %.17g" got r.ref_residual)
      else None

(* Number of failed answers; prints why each failed. *)
let check_answers ~perturb refs answers =
  List.fold_left
    (fun k a ->
      match failure ~perturb refs a with
      | None -> k
      | Some why ->
        if k < 10 then
          Report.info "failed request n=%d %s: %s" a.shape.n a.shape.variant
            why;
        k + 1)
    0 answers

(* ------------------------------------------------------------------ *)

(* The tail percentile request_s.tail reports.  The rare shapes' 79
   plan-cache misses are 0.3-0.6 % of a run's requests, so a percentile
   above p99 lands among them or on their edge and jumps from run to
   run; p98 stays clear of them and leaves hundreds of requests beyond
   it. *)
let tail_q = 98.0

let largest_common =
  List.fold_left
    (fun best s -> if s.n > best.n then s else best)
    (List.hd common) common

let run ~quick ~seed ~seconds ~trace ~perturb ~inject =
  let setups = if quick then 1 else 21 in
  (* the chaos hook is honoured only for the fault-injection self-test *)
  let config = { Serve.default_config with Serve.sv_allow_faults = inject } in
  (* a set-up takes well under a tenth of a second; pauses between them
     spread the samples over several seconds of the host's changing
     speed instead of one *)
  let built =
    List.init setups (fun i ->
        if i > 0 then Unix.sleepf 0.25;
        let sv, t, ok = setup_once ~config in
        (* every server but the last is stopped once it has been timed *)
        if i < setups - 1 then Serve.shutdown sv;
        (sv, t, ok))
  in
  let sv, _, _ = List.nth built (setups - 1) in
  let warm_ok = List.for_all (fun (_, _, ok) -> ok) built in
  let setup_samples = List.map (fun (_, t, _) -> t) built in
  let lists = request_lists ~quick ~seed ~length:20000 in
  let cursor = Array.make clients 0 in
  let plan =
    let big = largest_common in
    let cfg = cycle_config big in
    Plan.build (Cycle.build cfg)
      ~opts:(Option.get (Options.variant_of_string big.variant))
      ~n:big.n ~params:(Cycle.params cfg ~n:big.n)
  in
  let roof = Env.record plan in
  Env.reset_peak_rss ();
  let refs = Hashtbl.create 64 in
  let check answers =
    List.iter
      (fun a ->
        if not (Hashtbl.mem refs a.shape) then
          Hashtbl.replace refs a.shape (reference a.shape))
      answers;
    check_answers ~perturb refs answers
  in
  let finish answers ~extra_failed =
    let attempted = List.length answers + 1 in
    let failed = check answers + extra_failed + if warm_ok then 0 else 1 in
    Serve.shutdown sv;
    Report.finish ~trace ~correct:(failed = 0) ~attempted ~failed
  in
  let latencies l = List.map latency l in
  let tenant_shed () =
    List.init clients (fun c ->
        let t = Serve.tenant_stats sv (Printf.sprintf "client-%d" c) in
        t.Serve.ts_shed + t.Serve.ts_evicted)
    |> List.fold_left ( + ) 0
  in
  if not trace then begin
    let answers, wall = phase sv lists ~seconds ~cursor ~inject in
    let n = List.length answers in
    let lat = latencies answers in
    let rare = rare_shapes ~quick in
    let rare_lat =
      List.filter_map
        (fun a -> if List.mem a.shape rare then Some (latency a) else None)
        answers
    in
    Report.info "set-up times (s): %s"
      (String.concat " " (List.map (Printf.sprintf "%.4f") setup_samples));
    Report.info "rare shapes %d, latency p50 %.4f s; request p99 %.4f s"
      (List.length rare_lat) (Stats.median rare_lat)
      (Stats.percentile lat 99.0);
    Report.set "setup_s" ~samples:setups (Stats.median setup_samples)
      ~note:"median of Serve.create + warm-ups";
    Report.set "solve_s" ~samples:n
      (Stats.median (List.map (fun a -> a.resp.Serve.rs_solve_s) answers))
      ~note:"median served guarded solve (rs_solve_s)";
    Report.set "cycles_per_solve" ~samples:n
      (Stats.mean (List.map (fun a -> float a.resp.Serve.rs_cycles) answers));
    Report.set "request_s" ~samples:n (Stats.median lat) ~note:"median";
    Report.set "request_s.tail" ~samples:n (Stats.percentile lat tail_q)
      ~note:(Printf.sprintf "p%g" tail_q);
    Report.set "requests_per_s" ~samples:n (float n /. wall);
    Report.set "peak_rss_mb" (Env.peak_rss_mb ()) ~note:"VmHWM";
    finish answers ~extra_failed:(tenant_shed ())
  end
  else begin
    (* the cache figures cover both halves: the rare shapes are all
       served within the first 9480 requests *)
    let hits0, misses0 = Serve.plan_cache_stats sv in
    let gc0 = Gc.quick_stat () in
    let plain, _ = phase sv lists ~seconds:(seconds /. 2.0) ~cursor ~inject in
    let gc1 = Gc.quick_stat () in
    Telemetry.reset ();
    Telemetry.set_enabled true;
    let traced, _ =
      phase sv lists ~seconds:(seconds /. 2.0) ~cursor ~inject:false
    in
    Telemetry.set_enabled false;
    let hits1, misses1 = Serve.plan_cache_stats sv in
    let cycle_spans =
      List.filter
        (fun (s : Telemetry.span) -> s.Telemetry.name = "guard.cycle")
        (Telemetry.spans ())
    in
    (* each request's span tree: the client's submit and await calls,
       inside the await the server's own queue and solve times, inside
       the solve the stepper calls the worker recorded.  The server
       enqueues at the end of [Serve.submit], so the queue wait is placed
       from there and the solve after it; what remains of the await, the
       hand-off of the answer to the client thread, stays unattributed. *)
    Trace.set_enabled true;
    List.iteri
      (fun id a ->
        let r = a.resp in
        let req =
          Trace.record ~id "request" ~start_ns:a.submit_ns ~stop_ns:a.done_ns
        in
        ignore
          (Trace.record ~parent:req ~id "serve.submit" ~start_ns:a.submit_ns
             ~stop_ns:a.submitted_ns);
        let await =
          Trace.record ~parent:req ~id "serve.await"
            ~start_ns:a.submitted_ns ~stop_ns:a.done_ns
        in
        let q_stop =
          a.submitted_ns + int_of_float (r.Serve.rs_queue_s *. 1e9)
        in
        ignore
          (Trace.record ~parent:await ~id "serve.queue"
             ~start_ns:a.submitted_ns ~stop_ns:q_stop);
        let s_stop = q_stop + int_of_float (r.Serve.rs_solve_s *. 1e9) in
        let solve =
          Trace.record ~parent:await ~id "serve.solve" ~start_ns:q_stop
            ~stop_ns:s_stop
        in
        List.iter
          (fun (c : Telemetry.span) ->
            let mid = c.Telemetry.start_ns + (c.Telemetry.dur_ns / 2) in
            if mid >= q_stop && mid < s_stop then
              ignore
                (Trace.record ~parent:solve ~id "exec.cycle"
                   ~start_ns:c.Telemetry.start_ns
                   ~stop_ns:(c.Telemetry.start_ns + c.Telemetry.dur_ns)))
          cycle_spans)
      traced;
    Trace.set_enabled false;
    let spans = Trace.all () in
    let nt = float (List.length traced) in
    let ms x = x *. 1e3 in
    let solve_total =
      List.fold_left (fun acc a -> acc +. a.resp.Serve.rs_solve_s) 0.0 traced
    in
    let cycle_s =
      List.map
        (fun (c : Telemetry.span) -> float c.Telemetry.dur_ns *. 1e-9)
        cycle_spans
    in
    let exec_total = List.fold_left ( +. ) 0.0 cycle_s in
    let ncycles = List.length cycle_s in
    let counter name = Telemetry.value (Telemetry.counter name) in
    let self l =
      float (Option.value (List.assoc_opt l (Trace.self_by_layer spans)) ~default:0)
      *. 1e-9
    in
    (* layer timings of every shape the run served, taken while the
       reference answers are prepared (outside the timed phases) *)
    ignore (check (plain @ traced));
    let per f = Hashtbl.fold (fun _ r acc -> f r :: acc) refs [] in
    let nshapes = Hashtbl.length refs in
    Report.set "ir.build_ms" ~samples:nshapes ~note:"median over served shapes"
      (ms (Stats.median (per (fun r -> r.ir_s))));
    Report.set "plan.build_ms" ~samples:nshapes
      (ms (Stats.median (per (fun r -> r.plan_s))));
    Report.set "plan.check_ms" ~samples:nshapes
      (ms (Stats.median (per (fun r -> r.check_s))));
    Report.set "verify.residual_ms" ~samples:nshapes
      (ms (Stats.median (per (fun r -> r.residual_s))));
    let note = "largest common shape" in
    Report.set "plan.groups" ~note (float (Plan.group_count plan));
    Report.set "plan.arrays" ~note (float (Plan.array_count plan));
    Report.set "plan.array_mb" ~note (float (Plan.total_array_bytes plan) /. 1e6);
    Report.set "plan.scratch_kb_per_thread" ~note
      (float (Plan.scratch_bytes_per_thread plan) /. 1024.0);
    Report.set "plan.redundancy" ~note
      (float (Exec.points_computed plan) /. float (Exec.points_domain plan) -. 1.0);
    Report.set "roofline.triad_gbs" roof.Roofline.bandwidth_gbs;
    Report.set "exec.cycle_ms.p50" ~samples:ncycles (ms (Stats.median cycle_s));
    Report.set "exec.mpts_per_s" ~samples:ncycles
      (float (counter "exec.points_computed") /. exec_total /. 1e6);
    Report.set "exec.share" (exec_total /. solve_total);
    Report.set "parallel.busy_ms" ~note:"per request"
      (float (counter "parallel.busy_ns") /. 1e6 /. nt);
    Report.set "mempool.peak_live_mb"
      (float (counter "mempool.peak_live_bytes") /. 1e6);
    let outside = solve_total -. exec_total in
    Report.set "guard.ms_per_cycle" ~samples:ncycles
      ~note:"served solve time outside the stepper"
      (ms outside /. float ncycles);
    Report.set "guard.share" (outside /. solve_total);
    Report.set "guard.faults" (float (counter "guard.rollbacks"));
    Report.set "guard.fallback_cycles" (float (counter "guard.fallback_cycles"));
    Report.set "serve.queue_ms.p50"
      ~samples:(List.length traced)
      (ms (Stats.median (List.map (fun a -> a.resp.Serve.rs_queue_s) traced)));
    Report.set "serve.solve_ms.p50"
      ~samples:(List.length traced)
      (ms (Stats.median (List.map (fun a -> a.resp.Serve.rs_solve_s) traced)));
    Report.set "serve.handoff_ms.p50" ~samples:(List.length traced)
      ~note:"await time beyond the server's queue + solve"
      (ms
         (Stats.median
            (List.map
               (fun a ->
                 float (a.done_ns - a.submitted_ns) *. 1e-9
                 -. a.resp.Serve.rs_queue_s -. a.resp.Serve.rs_solve_s)
               traced)));
    let hits = hits1 - hits0 and misses = misses1 - misses0 in
    Report.set "serve.plan_cache_hit_ratio" ~samples:(hits + misses)
      ~note:"both halves"
      (float hits /. float (max 1 (hits + misses)));
    Report.set "serve.shed" (float (tenant_shed ()));
    let plain_cycles =
      List.fold_left (fun acc a -> acc + a.resp.Serve.rs_cycles) 0 plain
    in
    Report.set "gc.minor_mb_per_cycle" ~samples:plain_cycles
      ((gc1.Gc.minor_words -. gc0.Gc.minor_words) *. 8.0 /. 1e6
      /. float plain_cycles);
    Report.set "gc.major_collections" ~note:"per request, untraced half"
      (float (gc1.Gc.major_collections - gc0.Gc.major_collections)
      /. float (List.length plain));
    Report.set "self.exec_ms_per_solve" (ms (self "exec") /. nt);
    Report.set "self.serve_ms_per_request" (ms (self "serve") /. nt);
    let shares =
      Trace.attributions spans ~root:"request" ~wrappers:[ "serve.await" ]
    in
    Report.set "trace.attributed_frac" ~samples:(List.length shares)
      ~note:"smallest share of a request covered by submit, queue and solve"
      (List.fold_left Float.min 1.0 shares);
    Report.info "attributed share of a request: p5 %.4f, median %.4f"
      (Stats.percentile shares 5.0) (Stats.median shares);
    let p50 l = Stats.median (latencies l) in
    Report.set "trace.overhead_frac"
      ~note:"traced vs untraced median request"
      ((p50 traced -. p50 plain) /. p50 plain);
    Report.info "telemetry spans recorded: %d" (List.length (Telemetry.spans ()));
    List.iter
      (fun (l, ns) ->
        Report.info "self %-12s %10.3f ms total" l (float ns /. 1e6))
      (Trace.self_by_layer spans);
    finish (plain @ traced) ~extra_failed:(tenant_shed ())
  end
