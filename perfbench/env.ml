(* Host facts recorded with every result, and file-system helpers that
   keep every file the benchmark writes inside its work directory. *)

let read_file path =
  match open_in path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        In_channel.input_all ic)
  | exception Sys_error _ -> ""

let nproc () = Domain.recommended_domain_count ()

(* Size in bytes of the highest-level data or unified cache cpu0 sees,
   from sysfs; 0 when sysfs does not say. *)
let llc_bytes () =
  let base = "/sys/devices/system/cpu/cpu0/cache" in
  let entries = try Sys.readdir base with Sys_error _ -> [||] in
  let parse_size s =
    let s = String.trim s in
    let n = String.length s in
    if n = 0 then 0
    else
      let num, mult =
        match s.[n - 1] with
        | 'K' -> (String.sub s 0 (n - 1), 1024)
        | 'M' -> (String.sub s 0 (n - 1), 1024 * 1024)
        | 'G' -> (String.sub s 0 (n - 1), 1024 * 1024 * 1024)
        | _ -> (s, 1)
      in
      Option.value (int_of_string_opt num) ~default:0 * mult
  in
  Array.fold_left
    (fun (best_level, best_size) e ->
      let dir = Filename.concat base e in
      let level =
        Option.value
          (int_of_string_opt (String.trim (read_file (dir ^ "/level"))))
          ~default:0
      in
      let ty = String.trim (read_file (dir ^ "/type")) in
      let size = parse_size (read_file (dir ^ "/size")) in
      if ty <> "Instruction" && level > best_level then (level, size)
      else (best_level, best_size))
    (0, 0) entries
  |> snd

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  read_file "/proc/self/status"
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         match String.split_on_char ':' line with
         | [ "VmHWM"; v ] ->
           Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
               float kb /. 1024.0)
         | _ -> None)
  |> Option.value ~default:Float.nan

(* Starts the peak-RSS figure afresh at the current resident set, so it
   measures the timed phase alone: not the set-up, the first-cycle
   check or the roofline buffers, all of which run before it.  A full
   major collection first releases what they left behind. *)
let reset_peak_rss () =
  Gc.full_major ();
  match open_out "/proc/self/clear_refs" with
  | oc -> Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        output_string oc "5")
  | exception Sys_error e ->
    failwith ("perfbench: cannot reset the peak resident set: " ^ e)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh, empty directory under [root]. *)
let counter = ref 0

let fresh_dir ~root tag =
  incr counter;
  let d = Filename.concat root (Printf.sprintf "%s-%d" tag !counter) in
  rm_rf d;
  mkdir_p d;
  d

(* The largest array a plan allocates, in MB (8-byte reals). *)
let largest_array_mb (plan : Repro_core.Plan.t) =
  Array.fold_left
    (fun m (a : Repro_core.Plan.array_info) -> max m a.Repro_core.Plan.len)
    0 plan.Repro_core.Plan.arrays
  |> fun len -> float (len * 8) /. 1e6

(* Prints the environment line every result carries, plus a label when
   the workload's largest array fits in the last-level cache, and
   returns the roofline measured for it. *)
let record plan =
  let roof = Repro_runtime.Roofline.measure () in
  let llc = llc_bytes () in
  let llc_mb = float llc /. 1048576.0 in
  let big_mb = largest_array_mb plan in
  Printf.printf
    "env nproc=%d cc=%s triad_gbs=%.2f llc_mb=%.1f largest_array_mb=%.2f\n"
    (nproc ())
    (Option.value (Repro_core.Native.cc ()) ~default:"none")
    roof.Repro_runtime.Roofline.bandwidth_gbs llc_mb big_mb;
  if float llc >= big_mb *. 1e6 then
    Printf.printf
      "env note: the largest array (%.1f MB) fits in the reported %.0f MB \
       last-level cache, so measured bandwidth is cache-level, not DRAM; \
       the 4xLLC rule for bandwidth runs cannot be met on this host\n"
      big_mb llc_mb;
  flush stdout;
  roof
