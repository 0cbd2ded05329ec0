(* perfbench: the repository benchmark.

   main.exe --workload NAME --seed N --seconds S --trace 0|1
            [--quick] [--perturb] [--inject-fault] [--workdir DIR]

   Runs one workload in this process (so the peak-RSS figure is the
   workload's own), prints one line per metric and, as the last line of
   standard output, the JSON result.  [--quick] shrinks every problem
   for the self-test; [--perturb] corrupts each returned answer before
   it is checked, and [--inject-fault] makes the first solve's optimized
   plan fault once so Guard falls back to the naive plan: both must show
   up as failures.  Every file the run
   writes (kernel caches, checkpoints, compiler temporaries) lives under
   the work directory, which is removed at exit. *)

let workloads = [ "classb-2d-v-ckpt"; "serve-mixed" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and quick = ref false and perturb = ref false in
  let inject = ref false in
  let workdir = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--quick", Arg.Set quick, " small problems (self-test)");
      ("--perturb", Arg.Set perturb, " corrupt every answer (self-test)");
      ( "--inject-fault",
        Arg.Set inject,
        " one fault and fallback in the first solve (self-test)" );
      ("--workdir", Arg.Set_string workdir, "DIR scratch directory") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline
      ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  let workdir =
    if !workdir <> "" then !workdir
    else
      Filename.concat ".bench_build"
        (Printf.sprintf "perfbench-run-%d" (Unix.getpid ()))
  in
  Env.mkdir_p (Filename.concat workdir "tmp");
  Unix.putenv "TMPDIR" (Filename.concat workdir "tmp");
  let trace = !trace = 1 in
  let status =
    match
      Report.info "workload %s seed %d seconds %g trace %b" !workload !seed
        !seconds trace;
      if !workload = "serve-mixed" then
        Mixed.run ~quick:!quick ~seed:!seed ~seconds:!seconds ~trace
          ~perturb:!perturb ~inject:!inject
      else
        Classb.run ~name:!workload ~quick:!quick ~seed:!seed
          ~seconds:!seconds ~trace ~perturb:!perturb ~inject:!inject ~workdir
    with
    | () -> 0
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      1
  in
  Env.rm_rf workdir;
  exit status
