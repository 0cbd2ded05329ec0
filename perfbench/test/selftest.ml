(* selftest.exe MAIN_EXE BENCHMARK_JSON

   Runs every workload of the benchmark in quick mode, untraced and
   traced, and checks that the result line names exactly the metrics
   BENCHMARK.json declares, with a correct verdict and no failures; then
   runs with --perturb and checks that the corrupted answers are counted
   as failures instead of passing, and with --inject-fault that an
   answer Guard had to produce on the fallback plan is counted as a
   failure for its fault event, although its value is right. *)

module Json = Repro_runtime.Json

let main_exe = Sys.argv.(1)
let declared_file = Sys.argv.(2)

let read_all ic = In_channel.input_all ic

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt

let declared key =
  let doc =
    match Json.parse (In_channel.with_open_bin declared_file read_all) with
    | Ok d -> d
    | Error e -> fail "%s: %s" declared_file e
  in
  let names =
    Option.value (Json.member key doc) ~default:Json.Null
    |> Json.to_list
    |> List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_str)
  in
  (doc, names)

let run args =
  let argv = Array.of_list (main_exe :: "--quick" :: "--seed" :: "7" :: args) in
  let ic = Unix.open_process_args_in main_exe argv in
  let out = read_all ic in
  (match Unix.close_process_in ic with
   | Unix.WEXITED 0 -> ()
   | _ -> fail "%s exited abnormally:\n%s" (String.concat " " args) out);
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> String.trim l <> "")
  in
  match Json.parse (List.nth lines (List.length lines - 1)) with
  | Ok r -> (out, r)
  | Error e -> fail "last line is not JSON (%s)" e

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let int_field r k =
  match Option.bind (Json.member k r) Json.to_int with
  | Some v -> v
  | None -> fail "result has no integer %S" k

let () =
  let doc, e2e = declared "end_to_end" in
  let _, layers = declared "per_layer" in
  let workloads =
    Json.to_list (Option.value (Json.member "workloads" doc) ~default:Json.Null)
    |> List.filter_map (fun w -> Option.bind (Json.member "name" w) Json.to_str)
  in
  if workloads = [] then fail "no workloads declared";
  List.iter
    (fun w ->
      List.iter
        (fun (trace, names) ->
          let _, r =
            run [ "--workload"; w; "--seconds"; "0.3"; "--trace"; trace ]
          in
          let got =
            match Json.member "metrics" r with
            | Some (Json.Obj kv) -> List.map fst kv
            | _ -> fail "%s: no metrics object" w
          in
          if List.sort compare got <> List.sort compare names then
            fail "%s trace %s: metric names differ from BENCHMARK.json" w trace;
          if Json.member "correct" r <> Some (Json.Bool true)
             || int_field r "failed" <> 0 || int_field r "attempted" < 1
          then fail "%s trace %s: unexpected failures" w trace;
          Printf.printf "ok %s trace %s: %d metrics\n%!" w trace
            (List.length got))
        [ ("0", e2e); ("1", layers) ];
      let _, r =
        run [ "--workload"; w; "--seconds"; "0.3"; "--trace"; "0"; "--perturb" ]
      in
      if int_field r "failed" < 1
         || Json.member "correct" r <> Some (Json.Bool false)
      then fail "%s: a perturbed answer was not counted as failed" w;
      Printf.printf "ok %s --perturb: %d of %d failed\n%!" w
        (int_field r "failed") (int_field r "attempted");
      let out, r =
        run
          [ "--workload"; w; "--seconds"; "0.3"; "--trace"; "0";
            "--inject-fault" ]
      in
      if int_field r "failed" <> 1
         || Json.member "correct" r <> Some (Json.Bool false)
         || not (contains out "1 fallback cycle(s)")
      then fail "%s: an injected fallback was not counted as failed" w;
      Printf.printf "ok %s --inject-fault: %d of %d failed\n%!" w
        (int_field r "failed") (int_field r "attempted"))
    workloads
