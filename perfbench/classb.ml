(* The class-B native workload: sequential guarded solves of random
   right-hand sides with durable checkpoints, one closed-loop caller,
   forced native backend. *)

open Repro_core
module Grid = Repro_grid.Grid
module Telemetry = Repro_runtime.Telemetry
module Mempool = Repro_runtime.Mempool
module Roofline = Repro_runtime.Roofline
module Cycle = Repro_mg.Cycle
module Problem = Repro_mg.Problem
module Solver = Repro_mg.Solver
module Guard = Repro_mg.Guard
module Checkpoint = Repro_mg.Checkpoint
module Verify = Repro_mg.Verify
module Conformance = Repro_mg.Conformance
module Flightrec = Repro_runtime.Flightrec

type spec = {
  cfg : Cycle.config;
  n : int;
  opts : Options.t;
  ckpt_every : int;  (** durable checkpoint cadence, in cycles *)
  setups : int;  (** cold set-ups per run; [setup_s] is their median *)
}

let rel_tol = 1e-8

(* The native kernel is single-threaded, so a second domain would sit
   idle and only join every stop-the-world collection. *)
let domains = 1

let spec ~quick name =
  let base dims shape smoothing levels =
    { (Cycle.default ~dims ~shape ~smoothing) with Cycle.levels }
  in
  let native o = { o with Options.backend = Options.Native; check_plan = true } in
  match name with
  | "classb-2d-v-ckpt" ->
    Some
      { cfg = base 2 Cycle.V (4, 4, 4) (if quick then 4 else 10);
        n = (if quick then 64 else 1024);
        opts = native Options.opt_plus;
        ckpt_every = 4;
        setups = (if quick then 1 else 3) }
  | _ -> None

let now = Telemetry.now_ns
let c_writes = Telemetry.counter "snapshot.writes"
let secs t0 = float (now () - t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Set-up: empty private kernel cache → first stepper ready             *)

type ready = {
  plan : Plan.t;
  rt : Exec.runtime;
  stepper : Solver.stepper;
  setup_s : float;
}

let setup_once sp ~workdir ~id =
  let dir = Env.fresh_dir ~root:workdir "kernel-cache" in
  Native.set_cache_dir (Some dir);
  Native.unload_all ();
  let t0 = now () in
  Trace.with_span ~id "setup" (fun parent ->
      let pipe =
        Trace.with_span ~parent ~id "ir.build" (fun _ -> Cycle.build sp.cfg)
      in
      let plan =
        Trace.with_span ~parent ~id "plan.build" (fun _ ->
            Plan.build pipe ~opts:sp.opts ~n:sp.n
              ~params:(Cycle.params sp.cfg ~n:sp.n))
      in
      Trace.with_span ~parent ~id "plan.check" (fun _ ->
          Plan_check.check_exn plan);
      let rt =
        Trace.with_span ~parent ~id "exec.runtime" (fun _ ->
            Exec.runtime ~domains ())
      in
      let stepper =
        Trace.with_span ~parent ~id "native.load" (fun _ ->
            Solver.plan_stepper plan ~rt)
      in
      { plan; rt; stepper; setup_s = secs t0 })

(* ------------------------------------------------------------------ *)
(* Guarded solves                                                      *)

type solve = {
  id : int;
  wall_s : float;
  cycles : int;  (** accepted cycles *)
  failure : string option;
      (** why the solve failed: not converged, a fault or fallback, or
          an output check that did not pass *)
  faults : int;
  fallback_cycles : int;
  residual_check_s : float;  (** one independent residual evaluation *)
  minor_mb : float;  (** minor-heap allocation during the solve *)
  major_collections : int;  (** major GC cycles completed during it *)
}

let problem_seed ~seed i = (seed * 1_000_003) + i

(* A stepper whose first call leaves a NaN in its output: Guard sees a
   fault and runs that cycle on the fallback plan, which the output
   check must count as a failure. *)
let nan_once stepper =
  let fired = ref false in
  fun ~v ~f ~out ->
    stepper ~v ~f ~out;
    if not !fired then begin
      fired := true;
      let b = out.Grid.buf in
      Repro_grid.Buf.set b (Repro_grid.Buf.len b / 2) Float.nan
    end

(* Runs [f] and records it as span [name] under [parent], keeping its
   bounds in [acc] too. *)
let timed ~parent ~id name acc f =
  let start_ns = now () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = now () in
      acc := (start_ns, stop_ns) :: !acc;
      ignore (Trace.record ~parent ~id name ~start_ns ~stop_ns))

(* Guard's own work inside one [Guard.run], placed from outside with its
   flight-recorder events: its set-up runs from the call to the first
   Cycle_begin event, and each cycle's check from the end of the stepper
   call to the Cycle_end (or Fault) event that follows it, less the
   checkpoint call in between.  Time Guard spends anywhere else (its
   loop bookkeeping, building a fallback plan) stays unattributed. *)
let record_guard_spans ~guard_h ~id ~steps ~cks =
  let g = Trace.get guard_h in
  let evs =
    List.filter
      (fun (e : Flightrec.event) ->
        e.Flightrec.t_ns >= g.Trace.start_ns
        && e.Flightrec.t_ns <= g.Trace.stop_ns)
      (Flightrec.events ())
  in
  let first p =
    List.find_map
      (fun (e : Flightrec.event) ->
        if p e then Some e.Flightrec.t_ns else None)
      evs
  in
  let span start_ns stop_ns =
    ignore (Trace.record ~parent:guard_h ~id "guard.check" ~start_ns ~stop_ns)
  in
  Option.iter
    (fun stop_ns ->
      ignore
        (Trace.record ~parent:guard_h ~id "guard.setup"
           ~start_ns:g.Trace.start_ns ~stop_ns))
    (first (fun e ->
         match e.Flightrec.kind with
         | Flightrec.Cycle_begin _ -> true
         | _ -> false));
  List.iter
    (fun (_, step_stop) ->
      match
        first (fun e ->
            e.Flightrec.t_ns >= step_stop
            &&
            match e.Flightrec.kind with
            | Flightrec.Cycle_end _ | Flightrec.Fault _ -> true
            | _ -> false)
      with
      | None -> ()
      | Some stop ->
        let from =
          List.filter (fun (a, b) -> a >= step_stop && b <= stop) cks
          |> List.sort compare
          |> List.fold_left
               (fun from (a, b) ->
                 span from a;
                 b)
               step_stop
        in
        span from stop)
    steps

let solve_one sp (r : ready) ~workdir ~seed ~perturb ~inject ~id =
  let dims = sp.cfg.Cycle.dims in
  let problem =
    Problem.poisson_random ~dims ~n:sp.n ~seed:(problem_seed ~seed id)
  in
  let r0 =
    Verify.residual_l2 ~n:sp.n ~v:problem.Problem.v ~f:problem.Problem.f
  in
  let tol = rel_tol *. r0 in
  let policy = { Guard.default_policy with Guard.tol = Some tol } in
  let ck_dir = Env.fresh_dir ~root:workdir "checkpoints" in
  let sink =
    Checkpoint.sink
      { Checkpoint.dir = ck_dir; every = sp.ckpt_every;
        keep = Checkpoint.default_keep }
      ~dims ~n:sp.n ~variant:(Options.name sp.opts)
      ~plan_digest:(Plan.digest r.plan) ~seed:(problem_seed ~seed id) ()
  in
  let fallback () =
    Solver.plan_stepper
      (Solver.polymg_plan sp.cfg ~n:sp.n
         ~opts:(Guard.fallback_opts sp.opts))
      ~rt:r.rt
  in
  let stepper = if inject then nan_once r.stepper else r.stepper in
  let traced = Trace.enabled () in
  if traced then Flightrec.reset ();
  let steps = ref [] and cks = ref [] in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let res, guard_h =
    Trace.with_span ~id "solve" (fun solve_h ->
        let res, guard_h =
          Trace.with_span ~parent:solve_h ~id "guard.run" (fun guard_h ->
              let primary =
                if not traced then stepper
                else fun ~v ~f ~out ->
                  timed ~parent:guard_h ~id "exec.step" steps (fun () ->
                      stepper ~v ~f ~out)
              in
              let checkpoint =
                { Guard.ck_accept =
                    (fun ~cycle ~residual ~v ~stats ->
                      (* a span per accept, named by whether the sink
                         wrote a generation this time *)
                      let w0 = Telemetry.value c_writes in
                      let start_ns = now () in
                      sink.Checkpoint.on_accept ~cycle ~residual ~v ~stats;
                      let stop_ns = now () in
                      if traced then cks := (start_ns, stop_ns) :: !cks;
                      ignore @@ Trace.record ~parent:guard_h ~id
                        (if Telemetry.value c_writes > w0 then
                           "checkpoint.write"
                         else "checkpoint.accept")
                        ~start_ns ~stop_ns);
                  ck_restore = sink.Checkpoint.restore }
              in
              ( Guard.run ~policy ~checkpoint ~primary ~fallback ~problem (),
                guard_h ))
        in
        let start_ns = now () in
        let wrote = sink.Checkpoint.flush () <> None in
        ignore @@ Trace.record ~parent:solve_h ~id
          (if wrote then "checkpoint.write" else "checkpoint.flush")
          ~start_ns ~stop_ns:(now ());
        (res, guard_h))
  in
  let wall_s = secs t0 in
  let gc1 = Gc.quick_stat () in
  if traced then record_guard_spans ~guard_h ~id ~steps:!steps ~cks:!cks;
  Env.rm_rf ck_dir;
  (* output check, outside the timed region: the returned iterate must
     independently meet the tolerance *)
  if perturb then begin
    let g = res.Guard.v in
    let mid = Array.map (fun e -> e / 2) (Grid.extents g) in
    Grid.set g mid (Grid.get g mid +. 1.0)
  end;
  let tc = now () in
  let check = Verify.residual_l2 ~n:sp.n ~v:res.Guard.v ~f:problem.Problem.f in
  let residual_check_s = secs tc in
  let accepted =
    List.filter
      (fun (s : Solver.cycle_stats) ->
        s.Solver.status = Solver.Ok || s.Solver.status = Solver.Stagnated)
      res.Guard.stats
  in
  { id;
    wall_s;
    cycles = List.length accepted;
    failure =
      (if res.Guard.outcome <> Guard.Converged then
         Some ("outcome " ^ Guard.outcome_name res.Guard.outcome)
       else if res.Guard.events <> [] || res.Guard.fallback_cycles > 0 then
         Some
           (Printf.sprintf "%d fault event(s), %d fallback cycle(s)"
              (List.length res.Guard.events) res.Guard.fallback_cycles)
       else if not (check <= tol) then
         Some (Printf.sprintf "residual %.3g above tolerance %.3g" check tol)
       else None);
    faults = List.length res.Guard.events;
    fallback_cycles = res.Guard.fallback_cycles;
    residual_check_s;
    minor_mb = (gc1.Gc.minor_words -. gc0.Gc.minor_words) *. 8.0 /. 1e6;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections }

(* Closed loop: solve until [seconds] have passed (at least one solve).
   With [inject], the first solve's primary stepper faults once. *)
let phase sp r ~workdir ~seed ~perturb ~inject ~seconds ~first_id =
  let t0 = now () in
  let rec go id acc =
    if acc <> [] && secs t0 >= seconds then (List.rev acc, secs t0)
    else
      let inject = inject && id = first_id in
      go (id + 1) (solve_one sp r ~workdir ~seed ~perturb ~inject ~id :: acc)
  in
  go first_id []

(* ------------------------------------------------------------------ *)
(* The one-off output check: native first cycle vs the interpreter      *)

let first_cycle_diff sp (r : ready) ~seed =
  let problem =
    Problem.poisson_random ~dims:sp.cfg.Cycle.dims ~n:sp.n
      ~seed:(problem_seed ~seed 0)
  in
  let ext = Grid.extents problem.Problem.v in
  let native = Grid.create ext and interp = Grid.create ext in
  r.stepper ~v:problem.Problem.v ~f:problem.Problem.f ~out:native;
  let pipe = r.plan.Plan.pipeline in
  (* a runtime of its own, so the solves' pool statistics stay the
     native kernel's *)
  Exec.with_runtime ~domains @@ fun rt ->
  Exec.run r.plan rt
    ~inputs:
      [ (Cycle.input_v pipe, problem.Problem.v);
        (Cycle.input_f pipe, problem.Problem.f) ]
    ~outputs:[ (Cycle.output pipe, interp) ];
  (Conformance.grid_diff native interp).Conformance.max_abs

(* ------------------------------------------------------------------ *)

(* Number of failed solves; prints why each failed. *)
let count_failed solves =
  List.fold_left
    (fun n s ->
      match s.failure with
      | None -> n
      | Some why ->
        Report.info "failed solve %d: %s" s.id why;
        n + 1)
    0 solves

let run ~name ~quick ~seed ~seconds ~trace ~perturb ~inject ~workdir =
  let sp = Option.get (spec ~quick name) in
  if not (Native.available ()) then
    failwith "perfbench: the native workloads need a C compiler";
  if trace then begin
    Telemetry.set_enabled true;
    Trace.set_enabled true
  end;
  (* cold set-ups; the last one is kept for the solves *)
  let compile_ms0 = Telemetry.value (Telemetry.counter "native.compile_ms") in
  let readies =
    List.init sp.setups (fun i -> setup_once sp ~workdir ~id:(-1 - i))
  in
  let compile_ms =
    Telemetry.value (Telemetry.counter "native.compile_ms") - compile_ms0
  in
  let r = List.nth readies (sp.setups - 1) in
  List.iter
    (fun (o : ready) -> if o != r then Exec.free_runtime o.rt)
    readies;
  let setup_samples = List.map (fun (o : ready) -> o.setup_s) readies in
  let diff = first_cycle_diff sp r ~seed in
  let budget = Conformance.default_budgets.Conformance.vs_c in
  let diff_ok = diff <= budget in
  Report.info "check first-cycle native vs interpreter: max_abs %.3g (budget %.0e) %s"
    diff budget (if diff_ok then "ok" else "MISMATCH");
  let roof = Env.record r.plan in
  Env.reset_peak_rss ();
  let finish ~solves ~attempted =
    let failed = count_failed solves + if diff_ok then 0 else 1 in
    Report.finish ~trace ~correct:(failed = 0) ~attempted:(attempted + 1)
      ~failed
  in
  if not trace then begin
    let solves, wall =
      phase sp r ~workdir ~seed ~perturb ~inject ~seconds ~first_id:1
    in
    let times = List.map (fun s -> s.wall_s) solves in
    Report.info "set-up times (s): %s"
      (String.concat " " (List.map (Printf.sprintf "%.3f") setup_samples));
    Report.info "solve times (s): %s"
      (String.concat " " (List.map (Printf.sprintf "%.3f") times));
    let n = List.length solves in
    Report.info "solve p50 %.4f s, p90 %.4f s; %.4f solves/s"
      (Stats.median times) (Stats.percentile times 90.0) (float n /. wall);
    (* every solve does the same work, so the fastest is the one the
       host slowed least; see Stats *)
    let fastest = List.fold_left Float.min Float.infinity times in
    let note = "fastest solve" in
    Report.set "setup_s" ~samples:sp.setups (Stats.median setup_samples)
      ~note:"median cold set-up";
    Report.set "solve_s" ~samples:n fastest ~note;
    Report.set "cycles_per_solve" ~samples:n
      (Stats.mean (List.map (fun s -> float s.cycles) solves));
    Report.set "request_s" ~samples:n fastest
      ~note:"one request = one guarded solve; fastest solve";
    Report.set "request_s.tail" ~samples:n fastest ~note;
    Report.set "requests_per_s" ~samples:n (1.0 /. fastest) ~note;
    Report.set "peak_rss_mb" (Env.peak_rss_mb ()) ~note:"VmHWM";
    finish ~solves ~attempted:n
  end
  else begin
    (* untraced half first: the baseline for the tracing overhead and
       the GC figures *)
    Telemetry.set_enabled false;
    Trace.set_enabled false;
    let plain, _ =
      phase sp r ~workdir ~seed ~perturb ~inject ~seconds:(seconds /. 2.0)
        ~first_id:1
    in
    let plain_cycles = List.fold_left (fun a s -> a + s.cycles) 0 plain in
    Telemetry.reset ();
    Telemetry.set_enabled true;
    Trace.set_enabled true;
    Flightrec.set_enabled true;
    let traced, _ =
      phase sp r ~workdir ~seed ~perturb ~inject:false
        ~seconds:(seconds /. 2.0)
        ~first_id:(List.length plain + 1)
    in
    Trace.set_enabled false;
    Flightrec.set_enabled false;
    let spans = Trace.all () in
    let solves = plain @ traced in
    let nt = List.length traced in
    let ntf = float nt in
    let solve_total = Trace.total_s spans "solve" in
    let steps = Trace.durations spans "exec.step" in
    let exec_total = List.fold_left ( +. ) 0.0 steps in
    let nsteps = List.length steps in
    let self_s l =
      float
        (Option.value (List.assoc_opt l (Trace.self_by_layer spans)) ~default:0)
      *. 1e-9
    in
    let ck_total = self_s "checkpoint" in
    let guard_self = self_s "guard" in
    let traced_cycles = List.fold_left (fun a s -> a + s.cycles) 0 traced in
    let counter name = Telemetry.value (Telemetry.counter name) in
    let ms x = x *. 1e3 in
    let plan = r.plan in
    let cost = Cost.of_plan plan in
    let bytes_per_cycle = float (Cost.total_bytes cost) in
    let cycle_s = Stats.median steps in
    let emit_s, c_bytes =
      let t0 = now () in
      match Native.entry_source plan with
      | Ok src -> (secs t0, String.length src)
      | Error e -> failwith ("perfbench: plan not emittable: " ^ e)
    in
    let ir_ms, plan_ms, check_ms =
      let per name = ms (Stats.median (Trace.durations spans name)) in
      (per "ir.build", per "plan.build", per "plan.check")
    in
    Report.set "ir.build_ms" ~samples:sp.setups ir_ms;
    Report.set "plan.build_ms" ~samples:sp.setups plan_ms;
    Report.set "plan.check_ms" ~samples:sp.setups check_ms;
    Report.set "plan.groups" (float (Plan.group_count plan));
    Report.set "plan.arrays" (float (Plan.array_count plan));
    Report.set "plan.array_mb" (float (Plan.total_array_bytes plan) /. 1e6);
    Report.set "plan.scratch_kb_per_thread"
      (float (Plan.scratch_bytes_per_thread plan) /. 1024.0);
    Report.set "plan.redundancy"
      (float (Exec.points_computed plan) /. float (Exec.points_domain plan)
      -. 1.0);
    Report.set "native.emit_ms" (ms emit_s);
    Report.set "native.c_kb" (float c_bytes /. 1024.0);
    Report.set "native.compile_s" ~samples:sp.setups
      (float compile_ms /. 1e3 /. float sp.setups);
    Report.set "native.kernel_calls_per_cycle" ~samples:nsteps
      (float (counter "native.kernel_calls") /. float nsteps);
    Report.set "native.fallbacks" (float (counter "native.fallbacks"));
    Report.set "exec.cycle_ms.p50" ~samples:nsteps (ms cycle_s);
    Report.set "exec.mpts_per_s" ~samples:nsteps
      (float (Exec.points_computed plan * nsteps) /. exec_total /. 1e6);
    Report.set "exec.share" (exec_total /. solve_total);
    Report.set "parallel.busy_ms" ~note:"per solve"
      (float (counter "parallel.busy_ns") /. 1e6 /. ntf);
    Report.set "cost.dram_mb_per_cycle" ~note:"computed"
      (bytes_per_cycle /. 1e6);
    Report.set "cost.gflop_per_cycle" ~note:"computed" (cost.Cost.flops /. 1e9);
    Report.set "cost.intensity" ~note:"computed" cost.Cost.intensity;
    Report.set "roofline.triad_gbs" roof.Roofline.bandwidth_gbs;
    Report.set "kernel.achieved_gbs" ~samples:nsteps
      ~note:"computed bytes / measured cycle"
      (bytes_per_cycle /. cycle_s /. 1e9);
    Report.set "kernel.roof_frac" ~samples:nsteps
      (cost.Cost.flops /. cycle_s /. 1e9
      /. Roofline.roof_gflops roof ~intensity:cost.Cost.intensity);
    Report.set "mempool.peak_live_mb"
      (float (Mempool.stats r.rt.Exec.pool).Mempool.peak_live_bytes /. 1e6);
    Report.set "guard.ms_per_cycle" ~samples:traced_cycles
      (ms guard_self /. float traced_cycles);
    Report.set "guard.share" (guard_self /. solve_total);
    Report.set "guard.faults"
      (float (List.fold_left (fun a s -> a + s.faults) 0 solves));
    Report.set "guard.fallback_cycles"
      (float (List.fold_left (fun a s -> a + s.fallback_cycles) 0 solves));
    Report.set "verify.residual_ms" ~samples:(List.length solves)
      (ms (Stats.median (List.map (fun s -> s.residual_check_s) solves)));
    let write_samples = Trace.durations spans "checkpoint.write" in
    Report.set "checkpoint.write_ms.p50" ~samples:(List.length write_samples)
      (ms (Stats.median write_samples));
    Report.set "checkpoint.mb_written" ~note:"per solve"
      (float (counter "snapshot.bytes_written") /. 1e6 /. ntf);
    Report.set "checkpoint.share" (ck_total /. solve_total);
    Report.set "self.checkpoint_ms_per_solve" (ms ck_total /. ntf);
    Report.set "gc.minor_mb_per_cycle" ~samples:plain_cycles
      (List.fold_left (fun a s -> a +. s.minor_mb) 0.0 plain
      /. float plain_cycles);
    Report.set "gc.major_collections" ~note:"per solve, untraced half"
      (float (List.fold_left (fun a s -> a + s.major_collections) 0 plain)
      /. float (List.length plain));
    Report.set "self.exec_ms_per_solve" (ms exec_total /. ntf);
    Report.set "self.guard_ms_per_solve" (ms guard_self /. ntf);
    let shares =
      Trace.attributions spans ~root:"solve" ~wrappers:[ "guard.run" ]
    in
    Report.set "trace.attributed_frac" ~samples:(List.length shares)
      ~note:"smallest share of a solve covered by exec, checkpoint and guard \
             work spans"
      (List.fold_left Float.min 1.0 shares);
    Report.info "attributed share of a solve: p5 %.4f, median %.4f"
      (Stats.percentile shares 5.0) (Stats.median shares);
    let p50 l = Stats.median (List.map (fun s -> s.wall_s) l) in
    Report.set "trace.overhead_frac" ~samples:(List.length solves)
      ~note:"traced vs untraced median solve"
      ((p50 traced -. p50 plain) /. p50 plain);
    List.iter
      (fun (l, ns) ->
        Report.info "self %-12s %10.3f ms total" l (float ns /. 1e6))
      (Trace.self_by_layer spans);
    (* warm disk-cache hit: drop the in-process kernel, reload from disk *)
    Native.unload_all ();
    let t0 = now () in
    (match Native.load plan with
     | Ok _ -> ()
     | Error e -> failwith ("perfbench: warm reload failed: " ^ e));
    Report.set "native.load_ms" ~note:"warm disk-cache hit" (ms (secs t0));
    finish ~solves ~attempted:(List.length solves)
  end;
  Exec.free_runtime r.rt;
  Native.unload_all ();
  Native.set_cache_dir None
