(* Metric collection and the result line.

   The metric names and units here are the ones BENCHMARK.json
   declares; the self-test checks that the two lists agree.  An untraced
   run reports every end-to-end metric, a traced run every per-layer
   metric.  A per-layer metric a workload does not exercise (the native
   compiler or checkpoint writes on serve-mixed) is
   reported as 0 and labelled "n/a"; one whose inputs were empty (a
   ratio over no samples) as 0 labelled "undefined". *)

let end_to_end =
  [ ("setup_s", "s");
    ("solve_s", "s");
    ("cycles_per_solve", "count");
    ("request_s", "s");
    ("request_s.tail", "s");
    ("requests_per_s", "1/s");
    ("peak_rss_mb", "MB") ]

let per_layer =
  [ ("ir.build_ms", "ms");
    ("plan.build_ms", "ms");
    ("plan.check_ms", "ms");
    ("plan.groups", "count");
    ("plan.arrays", "count");
    ("plan.array_mb", "MB");
    ("plan.scratch_kb_per_thread", "KB");
    ("plan.redundancy", "ratio");
    ("native.emit_ms", "ms");
    ("native.c_kb", "KB");
    ("native.compile_s", "s");
    ("native.load_ms", "ms");
    ("native.kernel_calls_per_cycle", "count");
    ("native.fallbacks", "count");
    ("exec.cycle_ms.p50", "ms");
    ("exec.mpts_per_s", "Mpt/s");
    ("exec.share", "ratio");
    ("parallel.busy_ms", "ms");
    ("cost.dram_mb_per_cycle", "MB");
    ("cost.gflop_per_cycle", "GFLOP");
    ("cost.intensity", "flop/B");
    ("roofline.triad_gbs", "GB/s");
    ("kernel.achieved_gbs", "GB/s");
    ("kernel.roof_frac", "ratio");
    ("mempool.peak_live_mb", "MB");
    ("guard.ms_per_cycle", "ms");
    ("guard.share", "ratio");
    ("guard.faults", "count");
    ("guard.fallback_cycles", "count");
    ("verify.residual_ms", "ms");
    ("checkpoint.write_ms.p50", "ms");
    ("checkpoint.mb_written", "MB");
    ("checkpoint.share", "ratio");
    ("serve.queue_ms.p50", "ms");
    ("serve.solve_ms.p50", "ms");
    ("serve.handoff_ms.p50", "ms");
    ("serve.plan_cache_hit_ratio", "ratio");
    ("serve.shed", "count");
    ("gc.minor_mb_per_cycle", "MB");
    ("gc.major_collections", "count");
    ("self.exec_ms_per_solve", "ms");
    ("self.guard_ms_per_solve", "ms");
    ("self.checkpoint_ms_per_solve", "ms");
    ("self.serve_ms_per_request", "ms");
    ("trace.attributed_frac", "ratio");
    ("trace.overhead_frac", "ratio") ]

type metric = { value : float; samples : int; note : string }

let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let set ?(samples = 1) ?(note = "") name value =
  Hashtbl.replace table name { value; samples; note }

(* Free-form context lines (environment, per-layer self times). *)
let info fmt = Printf.printf (fmt ^^ "\n%!")

let finish ~trace ~correct ~attempted ~failed =
  let declared = if trace then per_layer else end_to_end in
  let rows =
    List.map
      (fun (name, unit_) ->
        match Hashtbl.find_opt table name with
        | Some m when trace && not (Float.is_finite m.value) ->
          (name, unit_, { m with value = 0.0; note = "undefined" })
        | Some m -> (name, unit_, m)
        | None when trace ->
          (name, unit_, { value = 0.0; samples = 0; note = "n/a" })
        | None -> failwith ("perfbench: end-to-end metric not measured: " ^ name))
      declared
  in
  List.iter
    (fun (name, unit_, m) ->
      info "metric %-30s %14.6g %-6s n=%d%s" name m.value unit_ m.samples
        (if m.note = "" then "" else "  " ^ m.note))
    rows;
  info "failed_frac %.6g (%d of %d attempted)"
    (if attempted = 0 then 1.0 else float failed /. float attempted)
    failed attempted;
  let open Repro_runtime.Json in
  let metrics =
    Obj
      (List.map
         (fun (name, unit_, m) ->
           (name, Obj [ ("value", Num m.value); ("unit", Str unit_) ]))
         rows)
  in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool correct);
            ("attempted", num attempted);
            ("failed", num failed);
            ("metrics", metrics) ]))
