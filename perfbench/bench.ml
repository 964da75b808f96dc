(* The repository benchmark: one closed-loop client driving the
   system's public functions in-process, timing each layer from the
   outside.

     bench.exe --workload stock|bigprog|fleet --seed N --seconds S --trace 0|1

   Workloads (README.md says why each was chosen):
   - stock:   minic -> minirun -> gprofx on quick/matrix/sort, then PGO;
   - bigprog: the same job on a fresh generated ~500-routine program;
   - fleet:   SUBMIT -> QUERY report through a live profd child.

   Every output is checked; a failed check counts against the run's
   failures and makes the command exit 1. The last line of stdout is
   one JSON object: end-to-end metrics with --trace 0, per-layer
   metrics (from in-memory spans, see span.ml) with --trace 1. *)

open Perfbench

(* --- arguments ---------------------------------------------------------- *)

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "stock | bigprog | fleet");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "length of the measured phase");
      ("--trace", Arg.Set_int trace, "1 = per-layer metrics from spans");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1 }

(* --- failure accounting ------------------------------------------------- *)

exception Check of string

let require cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check msg)) fmt

let get what = function Ok v -> v | Error e -> raise (Check (what ^ ": " ^ e))

let attempted = ref 0

let failed = ref 0

let fail msg =
  incr failed;
  if !failed <= 20 then prerr_endline ("perfbench: check failed: " ^ msg)

(* Run one operation; a raised check marks it failed. *)
let attempt f =
  incr attempted;
  match f () with
  | v -> Some v
  | exception Check msg ->
    fail msg;
    None

(* A check after the measured phase: failing it fails the run. *)
let verify f = match f () with () -> () | exception Check msg -> fail msg

(* --- small helpers ------------------------------------------------------ *)

let now = Unix.gettimeofday

let span = Span.with_

let work_dir = ".perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
    Unix.rmdir p
  | _ -> Sys.remove p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Linear interpolation between closest ranks. *)
let percentile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

let median xs = percentile xs 0.5

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* p90 needs at least ten samples beyond it *)
let min_samples = 100

let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | s ->
    List.fold_left
      (fun acc line ->
        match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
        | kb -> float_of_int kb /. 1024.0
        | exception _ -> acc)
      0.0 (String.split_on_char '\n' s)

(* Digest of the sources the counts depend on, so a stored count is
   only compared against a run of the same code. *)
let source_digest () =
  let rec files d =
    Sys.readdir d |> Array.to_list |> List.sort compare
    |> List.concat_map (fun e ->
           let p = Filename.concat d e in
           if Sys.is_directory p then files p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  files "lib" @ files "perfbench"
  |> List.map (fun p -> p ^ Digest.to_hex (Digest.file p))
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* --- metrics output ----------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let print_result ~correct metrics =
  List.iter
    (fun x -> Printf.printf "  %-34s %14.6f %s\n" x.name x.value x.unit_)
    metrics;
  Printf.printf "fail_ratio %.6f ratio (%d of %d operations failed)\n"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    !failed !attempted;
  let body =
    String.concat ","
      (List.map
         (fun x ->
           Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" x.name x.value x.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 !attempted) !failed body

(* --- exact counts ------------------------------------------------------- *)

(* Simulated quantities summed once over a workload's fixed input set;
   they must repeat exactly across runs of one seed. *)
type counts = {
  mutable sim_cycles : int;
  mutable pgo_sim_cycles : int;
  mutable instrs : int;
  mutable mcount_cycles : int;
  mutable text_instrs : int;
  mutable gmon_bytes : int;
  mutable inlined : int;
  mutable reordered : int;
}

let zero_counts () =
  { sim_cycles = 0; pgo_sim_cycles = 0; instrs = 0; mcount_cycles = 0;
    text_instrs = 0; gmon_bytes = 0; inlined = 0; reordered = 0 }

let counts_line c =
  Printf.sprintf
    "sim_cycles=%d pgo_sim_cycles=%d vm.instrs=%d mcount_cycles=%d \
     compile.text_instrs=%d gmon.bytes=%d pgo.inlined=%d pgo.reordered=%d"
    c.sim_cycles c.pgo_sim_cycles c.instrs c.mcount_cycles c.text_instrs
    c.gmon_bytes c.inlined c.reordered

(* Compare against the counts an earlier run of this seed and this
   code stored, or store them. *)
let check_counts_across_runs ~workload ~seed c =
  let dir = Filename.concat work_dir "counts" in
  mkdir_p dir;
  let path =
    Filename.concat dir (Printf.sprintf "%s-%s-%d" (source_digest ()) workload seed)
  in
  let line = counts_line c in
  if Sys.file_exists path then
    verify (fun () ->
        let before = In_channel.with_open_bin path In_channel.input_all in
        require (before = line) "exact counts differ from an earlier run of seed %d:\n  before %s\n  now    %s"
          seed before line)
  else Out_channel.with_open_bin path (fun oc -> output_string oc line)

(* --- the profile pipeline (stock and bigprog) --------------------------- *)

type job = {
  j_cycles : int;
  j_pgo_cycles : int;
  j_instrs : int;
  j_pgo_instrs : int;
  j_mcount : int;
  j_text : int;
  j_gmon_bytes : int;
  j_inlined : int;
  j_reordered : int;
  j_output : string;
  j_result : int option;
  j_pgo_output : string;
  j_pgo_result : int option;
  j_findings : int;
  j_lint_errors : int;
  j_listing_bytes : int;
  j_conserved : bool;  (** flat self time + unattributed = profile total *)
  j_vm_words : float;  (** minor words allocated by both VM runs *)
}

let vm_config = { Vm.Machine.default_config with max_cycles = Some 500_000_000 }

let run_vm name obj =
  let w0 = if !Span.enabled then Gc.minor_words () else 0.0 in
  let machine = Vm.Machine.create ~config:vm_config obj in
  (match Vm.Machine.run machine with
  | Vm.Machine.Halted -> ()
  | Vm.Machine.Faulted f -> raise (Check (Format.asprintf "%s: %a" name Vm.Machine.pp_fault f))
  | Vm.Machine.Running -> raise (Check (name ^ ": did not halt")));
  let words = if !Span.enabled then Gc.minor_words () -. w0 else 0.0 in
  (machine, words)

let conserved (rep : Gprof_core.Report.t) gmon =
  let p = rep.profile in
  let flat = Array.fold_left (fun a e -> a +. e.Gprof_core.Profile.e_self) 0.0 p.entries in
  let total = Gmon.total_seconds gmon in
  Float.abs (flat +. p.unattributed -. total) <= 1e-9 *. Float.max 1.0 total

let pipeline ~name source =
  let options = Compile.Codegen.profiling_options in
  let ast = span "mini.parse" (fun () -> Mini.Parser.parse_program source) in
  let obj =
    span "compile.codegen" (fun () ->
        get name (Compile.Codegen.compile_program ~options ~source_name:name ast))
  in
  let machine, w1 = span "vm.run" (fun () -> run_vm name obj) in
  let gmon = span "vm.profile" (fun () -> Vm.Machine.profile machine) in
  let output = span "vm.output" (fun () -> Vm.Machine.output machine) in
  let bytes = span "gmon.encode" (fun () -> Gmon.to_bytes gmon) in
  let gmon = span "gmon.decode" (fun () -> get "gmon decode" (Gmon.of_bytes bytes)) in
  let rep =
    span "core.analyze" (fun () -> get "analyze" (Gprof_core.Report.analyze obj gmon))
  in
  let listing = span "core.render" (fun () -> Gprof_core.Report.full_listing rep) in
  let lint = span "analysis.lint" (fun () -> Analysis.Proflint.lint obj gmon) in
  let pobj, report =
    span "pgo.optimize" (fun () ->
        get "pgo" (Pgo.optimize ~options ~source_name:name ast gmon))
  in
  let pmachine, w2 = span "vm.pgo_run" (fun () -> run_vm (name ^ " (pgo)") pobj) in
  let pgo_output = span "vm.output" (fun () -> Vm.Machine.output pmachine) in
  {
    j_cycles = Vm.Machine.cycles machine;
    j_pgo_cycles = Vm.Machine.cycles pmachine;
    j_instrs = Vm.Machine.instructions_executed machine;
    j_pgo_instrs = Vm.Machine.instructions_executed pmachine;
    j_mcount = Vm.Machine.mcount_cycles machine;
    j_text = Array.length obj.Objcode.Objfile.text;
    j_gmon_bytes = String.length bytes;
    j_inlined = List.length report.Pgo.p_inline_names;
    j_reordered = List.length report.Pgo.p_reorder;
    j_output = output;
    j_result = Vm.Machine.result machine;
    j_pgo_output = pgo_output;
    j_pgo_result = Vm.Machine.result pmachine;
    j_findings = List.length lint.l_findings;
    j_lint_errors =
      List.length
        (List.filter
           (fun f -> f.Analysis.Proflint.f_severity = Analysis.Proflint.Error)
           lint.l_findings);
    j_listing_bytes = String.length listing;
    j_conserved = conserved rep gmon;
    j_vm_words = w1 +. w2;
  }

let add_counts c j =
  c.sim_cycles <- c.sim_cycles + j.j_cycles;
  c.pgo_sim_cycles <- c.pgo_sim_cycles + j.j_pgo_cycles;
  c.instrs <- c.instrs + j.j_instrs;
  c.mcount_cycles <- c.mcount_cycles + j.j_mcount;
  c.text_instrs <- c.text_instrs + j.j_text;
  c.gmon_bytes <- c.gmon_bytes + j.j_gmon_bytes;
  c.inlined <- c.inlined + j.j_inlined;
  c.reordered <- c.reordered + j.j_reordered

let same_counts a b =
  a.j_cycles = b.j_cycles && a.j_pgo_cycles = b.j_pgo_cycles
  && a.j_instrs = b.j_instrs && a.j_pgo_instrs = b.j_pgo_instrs
  && a.j_mcount = b.j_mcount && a.j_text = b.j_text
  && a.j_gmon_bytes = b.j_gmon_bytes && a.j_inlined = b.j_inlined
  && a.j_reordered = b.j_reordered

(* The fleet-only per-layer metrics and their units, in print order;
   the other workloads report them as 0. *)
let fleet_layer_units =
  [
    ("ingest.server_submit_us", "us"); ("ingest.server_report_us", "us");
    ("ingest.proto_wait_us", "us"); ("ingest.batch_profiles", "count");
    ("ingest.server_share", "ratio"); ("ingest.submit_p50_ms", "ms");
    ("ingest.submit_p90_ms", "ms"); ("ingest.query_p50_ms", "ms");
    ("ingest.query_p90_ms", "ms"); ("ingest.submits_per_s", "1/s");
    ("store.cache_hit_ratio", "ratio"); ("store.segments_loaded_per_query", "count");
    ("store.mb_decoded_per_query", "MB"); ("store.compact_ms", "ms");
  ]

let fleet_layers values =
  List.map (fun (name, unit_) -> m name unit_ (List.assoc name values)) fleet_layer_units

let no_fleet_layers = List.map (fun (name, unit_) -> m name unit_ 0.0) fleet_layer_units

(* --- host-speed calibration ---------------------------------------------- *)

(* This host's speed drifts by 10-40% from one minute to the next, in
   the same proportion for every layer (README.md, "Host noise"). To
   compare runs, host times are scaled to a reference host on which
   [calibration_unit] takes exactly [reference] seconds, using the
   unit's time measured next to each job. *)
let reference = 0.001

let calibration_unit () =
  let a = Array.init 3000 (fun i -> (i * 7919) mod 10007) in
  let l = Array.to_list a |> List.map (fun x -> (x, string_of_int x)) |> List.sort compare in
  let h = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace h k v) l;
  Hashtbl.length h

let calibrate () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calibration_unit ()));
  now () -. t0

(* Per job: reference over the median calibration of the five jobs
   centred on it. *)
let factors cals =
  let k = Array.length cals in
  Array.init k (fun i ->
      List.init 5 (fun d -> i + d - 2)
      |> List.filter_map (fun j -> if j >= 0 && j < k then Some cals.(j) else None)
      |> median
      |> ( /. ) reference)

type loop = {
  latencies : float list;  (** per successful job, scaled to the reference host *)
  raw : float list;  (** the same, in wall seconds *)
  factor : float array;  (** per job index: reference over local calibration *)
  cal : float;  (** median calibration time, wall seconds *)
}

(* --- what a measured phase produced ------------------------------------ *)

type phase = {
  setup_s : float;  (** scaled to the reference host *)
  loop : loop;
  counts : counts;
  rss_mb : float;
  gc_major : int;
  top_heap_mb : float;
  vm_instrs : int;  (** executed by the measured jobs' VM runs *)
  vm_words : float;  (** minor words those runs allocated *)
  decoded_bytes : int;  (** gmon bytes the client decoded *)
  listing_bytes : int;  (** listing bytes rendered *)
  findings : int;  (** lint findings reported *)
  extra : metric list;  (** workload-specific per-layer metrics *)
}

let heap_mb (st : Gc.stat) = float_of_int (st.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* what the measured jobs of a pipeline workload add up to *)
let of_jobs ~setup_s ~loop ~counts ~rss_mb ~gc_major ~top_heap_mb jobs =
  let total f = List.fold_left (fun a j -> a + f j) 0 jobs in
  {
    setup_s;
    loop;
    counts;
    rss_mb;
    gc_major;
    top_heap_mb;
    vm_instrs = total (fun j -> j.j_instrs + j.j_pgo_instrs);
    vm_words = List.fold_left (fun a j -> a +. j.j_vm_words) 0.0 jobs;
    decoded_bytes = total (fun j -> j.j_gmon_bytes);
    listing_bytes = total (fun j -> j.j_listing_bytes);
    findings = total (fun j -> j.j_findings);
    extra = no_fleet_layers;
  }

(* Set-up runs [reps] times, each after the calibration unit; the
   median, scaled to the reference host, is reported and the last
   result kept. [teardown] releases every earlier one. *)
let timed_setup ~reps ~teardown f =
  let rec go i times cals =
    let c = calibrate () in
    let t0 = now () in
    let v = f () in
    let times = (now () -. t0) :: times and cals = c :: cals in
    if i < reps then begin
      teardown v;
      go (i + 1) times cals
    end
    else (v, median times *. reference /. median cals)
  in
  go 1 [] []

(* Run [job] in a closed loop for [seconds], and further until the
   latency sample is large enough for a p90 (unless a check failed). [prepare i] makes job
   [i]'s input outside the timed part; [job i input] returns false
   when the job failed, and a failed job is not a latency sample.
   The calibration unit runs before every job, outside its time. *)
let closed_loop ~trace ~seconds ~prepare job =
  Span.enabled := trace;
  let t_end = now () +. seconds in
  let lat = ref [] and n = ref 0 and i = ref 0 and cals = ref [] in
  while now () < t_end || (!n < min_samples && !failed = 0) do
    Span.job := !i;
    let input = prepare !i in
    cals := calibrate () :: !cals;
    let t0 = now () in
    let ok = span "job" (fun () -> job !i input) in
    let dt = now () -. t0 in
    if ok then begin
      lat := (!i, dt) :: !lat;
      incr n
    end;
    incr i
  done;
  Span.enabled := false;
  let cals = Array.of_list (List.rev !cals) in
  let factor = factors cals in
  let lat = List.rev !lat in
  {
    latencies = List.map (fun (i, l) -> l *. factor.(i)) lat;
    raw = List.map snd lat;
    factor;
    cal = median (Array.to_list cals);
  }

(* --- stock -------------------------------------------------------------- *)

let stock_programs = Workloads.Programs.[ quick; matrix; sort ]

(* perfbench/stock_expected.txt: [name result "output"] per line *)
let read_expected () =
  In_channel.with_open_text "perfbench/stock_expected.txt" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l -> Scanf.sscanf l "%s %d %S" (fun n r o -> (n, (r, o))))

let check_stock expected name j =
  let r, o = List.assoc name expected in
  require (j.j_result = Some r && j.j_output = o) "%s: -pg build printed %S, expected %S" name j.j_output o;
  require (j.j_pgo_result = Some r && j.j_pgo_output = o) "%s: PGO build printed %S, expected %S" name j.j_pgo_output o;
  require j.j_conserved "%s: flat self time does not sum to the profile total" name;
  require (j.j_lint_errors = 0) "%s: lint reports %d error(s)" name j.j_lint_errors

let stock args =
  let setup () =
    let expected = read_expected () in
    List.iter
      (fun (w : Workloads.Programs.t) ->
        if not (List.mem_assoc w.w_name expected) then
          raise (Check ("no expected output for " ^ w.w_name)))
      stock_programs;
    (* warm the heap and code paths with one checked job *)
    let warm = Workloads.Programs.quick in
    ignore
      (attempt (fun () ->
           check_stock expected warm.w_name (pipeline ~name:warm.w_name warm.w_source)));
    expected
  in
  let expected, setup_s = timed_setup ~reps:5 ~teardown:ignore setup in
  (* equal shares in a seeded order: each round of three is a shuffle *)
  let program i =
    let a = Array.of_list stock_programs in
    let rng = Gen.Rng.create ((args.seed * 1_000_003) + (i / 3)) in
    for k = 2 downto 1 do
      let r = Gen.Rng.int rng (k + 1) in
      let t = a.(k) in
      a.(k) <- a.(r);
      a.(r) <- t
    done;
    a.(i mod 3)
  in
  let first = Hashtbl.create 3 and jobs = ref [] in
  let gc0 = Gc.quick_stat () in
  let loop =
    closed_loop ~trace:args.trace ~seconds:args.seconds ~prepare:program (fun _ w ->
        match
          attempt (fun () ->
              let j = pipeline ~name:w.w_name w.w_source in
              check_stock expected w.w_name j;
              (match Hashtbl.find_opt first w.w_name with
              | None -> Hashtbl.replace first w.w_name j
              | Some j0 ->
                require (same_counts j0 j) "%s: exact counts changed between jobs of one run" w.w_name);
              j)
        with
        | Some j ->
          jobs := j :: !jobs;
          true
        | None -> false)
  in
  let gc1 = Gc.quick_stat () in
  let top_heap_mb = heap_mb gc1 in
  let counts = zero_counts () in
  List.iter
    (fun (w : Workloads.Programs.t) ->
      match Hashtbl.find_opt first w.w_name with
      | Some j -> add_counts counts j
      | None -> fail ("no successful job of " ^ w.w_name))
    stock_programs;
  of_jobs ~setup_s ~loop ~counts ~rss_mb:(vm_hwm_mb "self")
    ~gc_major:(gc1.major_collections - gc0.major_collections) ~top_heap_mb !jobs

(* --- bigprog ------------------------------------------------------------ *)

(* The first jobs of every run are a fixed program set, the same for
   every seed, which the exact counts are summed over; later jobs get
   programs made from the run's seed. *)
let bigprog_fixed = 8

let bigprog_seed seed i = if i < bigprog_fixed then i + 1 else (seed * 100_003) + i

let check_bigprog name j =
  require (j.j_pgo_output = j.j_output && j.j_pgo_result = j.j_result)
    "%s: PGO build printed %S, -pg build %S" name j.j_pgo_output j.j_output;
  require (j.j_result = Some 0) "%s: main returned no 0" name;
  require j.j_conserved "%s: flat self time does not sum to the profile total" name;
  require (j.j_lint_errors = 0) "%s: lint reports %d error(s)" name j.j_lint_errors

let bigprog args =
  let setup () =
    let fixed =
      Array.init bigprog_fixed (fun i ->
          (Gen.generate ~seed:(bigprog_seed args.seed i) Gen.bigprog).source)
    in
    let warm = Gen.generate ~seed:0 Gen.fleet in
    ignore
      (attempt (fun () -> check_bigprog "warm-up" (pipeline ~name:"warm-up" warm.source)));
    fixed
  in
  let fixed, setup_s = timed_setup ~reps:5 ~teardown:ignore setup in
  let source i =
    if i < bigprog_fixed then fixed.(i)
    else (Gen.generate ~seed:(bigprog_seed args.seed i) Gen.bigprog).source
  in
  let run i src =
    let name = Printf.sprintf "gen%d" i in
    attempt (fun () ->
        let j = pipeline ~name src in
        check_bigprog name j;
        j)
  in
  let firsts = Array.make bigprog_fixed None and jobs = ref [] in
  let gc0 = Gc.quick_stat () in
  let loop =
    closed_loop ~trace:args.trace ~seconds:args.seconds ~prepare:source (fun i src ->
        match run i src with
        | Some j ->
          if i < bigprog_fixed then firsts.(i) <- Some j;
          jobs := j :: !jobs;
          true
        | None -> false)
  in
  let gc1 = Gc.quick_stat () in
  let top_heap_mb = heap_mb gc1 in
  let rss_mb = vm_hwm_mb "self" in
  let counts = zero_counts () in
  Array.iteri
    (fun i j ->
      match j with
      | Some j -> add_counts counts j
      | None -> fail (Printf.sprintf "no successful job of gen%d" i))
    firsts;
  (* the first program again: its counts must repeat within the run *)
  (match (firsts.(0), run 0 fixed.(0)) with
  | Some a, Some b ->
    verify (fun () -> require (same_counts a b) "gen0: exact counts changed on a rerun")
  | _ -> ());
  of_jobs ~setup_s ~loop ~counts ~rss_mb
    ~gc_major:(gc1.major_collections - gc0.major_collections) ~top_heap_mb !jobs

(* --- fleet -------------------------------------------------------------- *)

let pool_size = 16

let submits_per_query = 10

(* COMPACT after every fifth round: round latency then climbs through
   five levels as the tail grows, and p50 (2.5 levels up) and p90
   (4.5) both sit mid-level, never on a boundary between two. *)
let rounds_per_compact = 5

(* submitting hosts; with the store's 8 shards, a round of 10
   submits leaves about a quarter of the shards' cached views valid *)
let hosts = 64

type daemon = { pid : int; dir : string; socket : string }

let live_daemons : int list ref = ref []

(* Store.open_ + Ingest.create + Server.serve in one forked child. *)
let start_daemon dir =
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "profd.sock" in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    let stop = ref false in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
    let code =
      match Store.open_ (Filename.concat dir "store") with
      | Error _ -> 1
      | Ok (store, _) -> (
        match
          Server.serve (Server.default_config ~socket) (Ingest.create store)
            ~stop_requested:(fun () -> !stop)
            ~events:Obs.Eventlog.null
        with
        | Ok () -> 0
        | Error _ -> 1)
    in
    Unix._exit code
  | pid ->
    live_daemons := pid :: !live_daemons;
    (* poll every millisecond until it answers *)
    let deadline = now () +. 20.0 in
    let rec wait () =
      match Proto.rpc ~timeout:5.0 ~socket Proto.Query_stats with
      | Ok (Proto.Resp_ok _) -> ()
      | _ when now () < deadline ->
        Unix.sleepf 0.001;
        wait ()
      | _ -> raise (Check "profd child did not answer")
    in
    wait ();
    { pid; dir; socket }

let stop_daemon d =
  let bye = Proto.rpc ~timeout:30.0 ~socket:d.socket Proto.Shutdown in
  let _, status = Unix.waitpid [] d.pid in
  live_daemons := List.filter (( <> ) d.pid) !live_daemons;
  rm_rf d.dir;
  match (bye, status) with
  | Ok (Proto.Resp_ok _), Unix.WEXITED 0 -> Ok ()
  | _ -> Error "profd child did not shut down cleanly"

(* on any exit, leave no child behind *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

let rpc_ok what d req =
  match Proto.rpc ~timeout:30.0 ~socket:d.socket req with
  | Ok (Proto.Resp_ok s) -> s
  | Ok (Proto.Resp_busy _) -> raise (Check (what ^ ": BUSY"))
  | Ok (Proto.Resp_err e) -> raise (Check (what ^ ": " ^ e))
  | Error e -> raise (Check (what ^ ": " ^ e))

let snapshot d =
  get "metrics snapshot" (Obs.Snapshot.of_json (rpc_ok "QUERY metrics" d Proto.Query_metrics))

type payload = { bytes : string; gmon : Gmon.t; ticks : int }

(* One ~60-routine binary, profiled under distinct VM seeds and tick
   jitter: the pool of submissions. The pool is the same for every
   run; the run's seed picks which payload each host submits. *)
let fleet_inputs () =
  let seed = 1 in
  let g = Gen.generate ~seed Gen.fleet in
  let ast = Mini.Parser.parse_program g.source in
  let obj =
    get "fleet compile"
      (Compile.Codegen.compile_program ~options:Compile.Codegen.profiling_options
         ~source_name:"fleet" ast)
  in
  let counts = zero_counts () in
  counts.text_instrs <- Array.length obj.Objcode.Objfile.text;
  let config i =
    { vm_config with
      seed = (seed * 1000) + i;
      tick_jitter = 0.05 *. float_of_int (1 + (i mod 4));
      cycles_per_tick = 1000 }
  in
  let pool =
    Array.init pool_size (fun i ->
        let machine = Vm.Machine.create ~config:(config i) obj in
        (match Vm.Machine.run machine with
        | Vm.Machine.Halted -> ()
        | _ -> raise (Check "fleet binary did not halt"));
        let gmon = Vm.Machine.profile machine in
        let bytes = Gmon.to_bytes gmon in
        counts.sim_cycles <- counts.sim_cycles + Vm.Machine.cycles machine;
        counts.instrs <- counts.instrs + Vm.Machine.instructions_executed machine;
        counts.mcount_cycles <- counts.mcount_cycles + Vm.Machine.mcount_cycles machine;
        counts.gmon_bytes <- counts.gmon_bytes + String.length bytes;
        { bytes; gmon; ticks = Gmon.total_ticks gmon })
  in
  (ast, obj, pool, counts, config)

(* merge_all in chunks keeps the offline merge's memory small *)
let offline_merge gmons =
  let rec chunks acc cur n = function
    | [] -> List.rev (if cur = [] then acc else cur :: acc)
    | g :: rest ->
      if n = 256 then chunks (cur :: acc) [ g ] 1 rest else chunks acc (g :: cur) (n + 1) rest
  in
  get "offline merge"
    (Gmon.merge_all (List.map (fun c -> get "offline merge" (Gmon.merge_all c)) (chunks [] [] 0 gmons)))

let fleet args =
  let dir = Filename.concat work_dir (Printf.sprintf "fleet-%d" (Unix.getpid ())) in
  let setup () =
    let inputs = fleet_inputs () in
    (inputs, start_daemon dir)
  in
  let teardown (_, d) = ignore (stop_daemon d) in
  let ((ast, obj, pool, counts, config), d), setup_s =
    timed_setup ~reps:5 ~teardown setup
  in
  let rng = Gen.Rng.create (args.seed + 1) in
  let submitted = Array.make pool_size 0 in
  let n_submits = ref 0 and expected_ticks = ref 0 in
  let submit_lat = ref [] and query_lat = ref [] in
  let queries = ref 0 and payload_bytes = ref 0 in
  let compact_loaded = ref 0 and compact_read = ref 0 in
  let listing_bytes = ref 0 and decoded_bytes = ref 0 in
  let submit () =
    let p = Gen.Rng.int rng pool_size in
    let label = Printf.sprintf "host-%d" (Gen.Rng.int rng hosts) in
    let id = Some (Printf.sprintf "b%d-%d" args.seed !n_submits) in
    let payload = pool.(p).bytes in
    let t0 = now () in
    match
      attempt (fun () ->
          let reply =
            span "ingest.submit" (fun () ->
                rpc_ok "SUBMIT" d (Proto.Submit { label; id; payload }))
          in
          require
            (String.starts_with ~prefix:"queued" reply
            || String.starts_with ~prefix:"flushed" reply)
            "SUBMIT answered %S" reply)
    with
    | Some () ->
      submit_lat := (now () -. t0) :: !submit_lat;
      submitted.(p) <- submitted.(p) + 1;
      incr n_submits;
      payload_bytes := !payload_bytes + String.length payload;
      expected_ticks := !expected_ticks + pool.(p).ticks
    | None -> ()
  in
  let query () =
    let t0 = now () in
    attempt (fun () ->
        let bytes = span "ingest.query" (fun () -> rpc_ok "QUERY report" d Proto.Query_report) in
        query_lat := (now () -. t0) :: !query_lat;
        incr queries;
        let g = span "gmon.decode" (fun () -> get "report decode" (Gmon.of_bytes bytes)) in
        decoded_bytes := !decoded_bytes + String.length bytes;
        require
          (Gmon.total_ticks g = !expected_ticks && g.runs = !n_submits)
          "report holds %d ticks over %d runs, submitted %d ticks over %d runs"
          (Gmon.total_ticks g) g.runs !expected_ticks !n_submits;
        let rep = span "core.analyze" (fun () -> get "analyze" (Gprof_core.Report.analyze obj g)) in
        let listing = span "core.render" (fun () -> Gprof_core.Report.full_listing rep) in
        listing_bytes := !listing_bytes + String.length listing;
        require (conserved rep g) "report: flat self time does not sum to the profile total")
    <> None
  in
  (* compaction keeps the uncompacted tail, and with it query cost,
     cycling through the same range; it runs between rounds *)
  let compact round =
    if round > 0 && round mod rounds_per_compact = 0 then begin
      let before = if args.trace then Some (snapshot d) else None in
      ignore
        (attempt (fun () -> span "store.compact" (fun () -> ignore (rpc_ok "COMPACT" d Proto.Compact))));
      Option.iter
        (fun before ->
          let dd = Obs.Snapshot.diff ~before ~after:(snapshot d) in
          let c name = Option.value ~default:0 (Obs.Snapshot.find_counter dd name) in
          compact_loaded := !compact_loaded + c "gmon.files_loaded";
          compact_read := !compact_read + c "gmon.bytes_read")
        before
    end
  in
  let before = snapshot d in
  let gc0 = Gc.quick_stat () in
  let loop =
    closed_loop ~trace:args.trace ~seconds:args.seconds ~prepare:compact
      (fun _ () ->
        let f0 = !failed in
        for _ = 1 to submits_per_query do
          submit ()
        done;
        let ok = query () in
        ok && !failed = f0)
  in
  let gc1 = Gc.quick_stat () in
  let top_heap_mb = heap_mb gc1 in
  let after = snapshot d in
  let rss_mb = Float.max (vm_hwm_mb "self") (vm_hwm_mb (string_of_int d.pid)) in
  (* the daemon's view equals the offline merge of exactly what was sent *)
  verify (fun () ->
      let report = rpc_ok "QUERY report" d Proto.Query_report in
      let gmons =
        List.concat
          (List.init pool_size (fun p -> List.init submitted.(p) (fun _ -> pool.(p).gmon)))
      in
      require (report = Gmon.to_bytes (offline_merge gmons))
        "final QUERY report differs from the offline merge of the %d submitted payloads"
        !n_submits;
      let stats = get "stats" (Obs.Jsonin.parse (rpc_ok "QUERY stats" d Proto.Query_stats)) in
      let field k =
        Option.bind (Obs.Jsonin.member "store" stats) (Obs.Jsonin.member k)
        |> Fun.flip Option.bind Obs.Jsonin.to_int
      in
      require (field "total_runs" = Some !n_submits) "QUERY stats does not account for %d submits" !n_submits;
      require (field "quarantined" = Some 0) "QUERY stats reports quarantined submissions");
  verify (fun () -> match stop_daemon d with Ok () -> () | Error e -> raise (Check e));
  (* PGO closes the loop from the merged pool, run once *)
  verify (fun () ->
      let merged = offline_merge (Array.to_list (Array.map (fun p -> p.gmon) pool)) in
      let pobj, report =
        get "fleet pgo"
          (Pgo.optimize ~options:Compile.Codegen.profiling_options ~source_name:"fleet" ast merged)
      in
      (* jitter draws from the PRNG rand uses, so compare without it *)
      let steady = { (config 0) with tick_jitter = 0.0 } in
      let base = Vm.Machine.create ~config:steady obj in
      let opt = Vm.Machine.create ~config:steady pobj in
      require
        (Vm.Machine.run base = Vm.Machine.Halted && Vm.Machine.run opt = Vm.Machine.Halted
        && Vm.Machine.output base = Vm.Machine.output opt)
        "fleet: PGO build output differs";
      counts.pgo_sim_cycles <- Vm.Machine.cycles opt;
      counts.inlined <- List.length report.Pgo.p_inline_names;
      counts.reordered <- List.length report.Pgo.p_reorder;
      (* the pool repeats exactly *)
      let again = Vm.Machine.create ~config:(config 0) obj in
      ignore (Vm.Machine.run again);
      require (Gmon.to_bytes (Vm.Machine.profile again) = pool.(0).bytes)
        "fleet: a pool profile changed on a rerun");
  let dd = Obs.Snapshot.diff ~before ~after in
  let hist_mean name =
    match Obs.Snapshot.find_hist dd name with
    | Some h when h.h_count > 0 -> float_of_int h.h_sum /. float_of_int h.h_count
    | _ -> 0.0
  in
  let c name = float_of_int (Option.value ~default:0 (Obs.Snapshot.find_counter dd name)) in
  let per_query x = if !queries = 0 then 0.0 else x /. float_of_int !queries in
  let hist_sum name =
    match Obs.Snapshot.find_hist dd name with Some h -> float_of_int h.h_sum | None -> 0.0
  in
  (* host times scale to the reference host by the run's calibration *)
  let f = reference /. loop.cal in
  let ms xs q = if xs = [] then 0.0 else f *. 1000.0 *. percentile xs q in
  let server_submit = f *. hist_mean "profd.rpc.submit.latency" in
  let hits = c "store.cache.hits" and misses = c "store.cache.misses" in
  let values =
    [
      ("ingest.server_submit_us", server_submit);
      ("ingest.server_report_us", f *. hist_mean "profd.rpc.report.latency");
      ("ingest.proto_wait_us", (f *. 1e6 *. mean !submit_lat) -. server_submit);
      ("ingest.batch_profiles", hist_mean "ingest.batch_size");
      ( "ingest.server_share",
        ratio
          (hist_sum "profd.rpc.submit.latency" +. hist_sum "profd.rpc.report.latency")
          (1e6 *. (sum !submit_lat +. sum !query_lat)) );
      ("ingest.submit_p50_ms", ms !submit_lat 0.5);
      ("ingest.submit_p90_ms", ms !submit_lat 0.9);
      ("ingest.query_p50_ms", ms !query_lat 0.5);
      ("ingest.query_p90_ms", ms !query_lat 0.9);
      ("ingest.submits_per_s", ratio (float_of_int !n_submits) (sum loop.latencies));
      ("store.cache_hit_ratio", ratio hits (hits +. misses));
      ("store.segments_loaded_per_query", per_query (c "gmon.files_loaded" -. float_of_int !compact_loaded));
      ( "store.mb_decoded_per_query",
        per_query ((c "gmon.bytes_read" -. float_of_int (!payload_bytes + !compact_read)) /. 1e6) );
      ("store.compact_ms", f *. hist_mean "profd.rpc.compact.latency" /. 1000.0);
    ]
  in
  {
    setup_s;
    loop;
    counts;
    rss_mb;
    gc_major = gc1.major_collections - gc0.major_collections;
    top_heap_mb;
    vm_instrs = 0;
    vm_words = 0.0;
    decoded_bytes = !decoded_bytes;
    listing_bytes = !listing_bytes;
    findings = 0;
    extra = fleet_layers values;
  }

(* --- metrics ------------------------------------------------------------ *)

let end_to_end p =
  [
    m "setup_s" "s" p.setup_s;
    m "job_p50_ms" "ms" (1000.0 *. percentile p.loop.latencies 0.5);
    m "job_p90_ms" "ms" (1000.0 *. percentile p.loop.latencies 0.9);
    m "jobs_per_s" "1/s" (float_of_int (List.length p.loop.latencies) /. sum p.loop.latencies);
    m "sim_cycles" "cycles" (float_of_int p.counts.sim_cycles);
    m "pgo_sim_cycles" "cycles" (float_of_int p.counts.pgo_sim_cycles);
    m "peak_rss_mb" "MB" p.rss_mb;
  ]

(* A span's host time scales by its job's factor. *)
let span_weight (loop : loop) (s : Span.t) =
  if s.job < Array.length loop.factor then loop.factor.(s.job) else reference /. loop.cal

let job_seconds loop spans =
  List.fold_left
    (fun a (s : Span.t) ->
      if s.name = "job" then a +. (Span.duration s *. span_weight loop s) else a)
    0.0 spans

let per_layer p spans ~span_cost =
  let self = Span.self_by_name ~weight:(span_weight p.loop) spans in
  let s name = Option.value ~default:0.0 (Hashtbl.find_opt self name) in
  let jobs = float_of_int (max 1 (List.length p.loop.latencies)) in
  let per_job name = 1000.0 *. s name /. jobs in
  let vm_s = s "vm.run" +. s "vm.pgo_run" in
  let job_s = job_seconds p.loop spans in
  let c = p.counts in
  let count x = float_of_int x in
  [
    m "vm.run_ms" "ms" (per_job "vm.run");
    m "vm.pgo_run_ms" "ms" (per_job "vm.pgo_run");
    m "vm.ns_per_instr" "ns" (ratio (vm_s *. 1e9) (count p.vm_instrs));
    m "vm.minor_words_per_instr" "words" (ratio p.vm_words (count p.vm_instrs));
    m "vm.instrs" "count" (count c.instrs);
    m "vm.mcount_cycle_share" "ratio" (ratio (count c.mcount_cycles) (count c.sim_cycles));
    m "vm.job_share" "ratio"
      (ratio (vm_s +. s "vm.profile" +. s "vm.output") job_s);
    m "mini.parse_ms" "ms" (per_job "mini.parse");
    m "compile.codegen_ms" "ms" (per_job "compile.codegen");
    m "compile.text_instrs" "count" (count c.text_instrs);
    m "core.analyze_ms" "ms" (per_job "core.analyze");
    m "core.render_ms" "ms" (per_job "core.render");
    m "core.listing_bytes" "bytes" (count p.listing_bytes /. jobs);
    m "analysis.lint_ms" "ms" (per_job "analysis.lint");
    m "analysis.lint_findings" "count" (count p.findings /. jobs);
    m "pgo.optimize_ms" "ms" (per_job "pgo.optimize");
    m "pgo.inlined" "count" (count c.inlined);
    m "pgo.reordered" "count" (count c.reordered);
    m "gmon.encode_ms" "ms" (per_job "gmon.encode");
    m "gmon.decode_ms" "ms" (per_job "gmon.decode");
    m "gmon.bytes" "bytes" (count c.gmon_bytes);
    m "gmon.decode_mb_per_s" "MB/s" (ratio (count p.decoded_bytes /. 1e6) (s "gmon.decode"));
  ]
  @ p.extra
  @ [
      m "gc.major_per_job" "count" (count p.gc_major /. jobs);
      m "gc.top_heap_mb" "MB" p.top_heap_mb;
      m "trace.overhead_pct" "%"
        (100.0 *. ratio (span_cost *. count (List.length spans)) (sum p.loop.raw));
      m "host.calibration_ms" "ms" (1000.0 *. p.loop.cal);
    ]

(* Layer self-time shares of the measured jobs, largest first. *)
let print_shares loop spans =
  let job_s = job_seconds loop spans in
  let self = Span.self_by_name ~weight:(span_weight loop) spans in
  Hashtbl.fold (fun name t acc -> (name, t) :: acc) self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (name, t) ->
         Printf.printf "  share %-20s %6.2f%%  (%.1f ms)\n" name (100.0 *. ratio t job_s)
           (1000.0 *. t))

(* The untraced run stores its end-to-end metrics; the traced run of
   the same seed and code compares against them: tracing overhead. *)
let e2e_file args =
  Filename.concat work_dir
    (Printf.sprintf "e2e-%s-%s-%d" (source_digest ()) args.workload args.seed)

let save_e2e args metrics =
  Out_channel.with_open_bin (e2e_file args) (fun oc ->
      List.iter (fun x -> Printf.fprintf oc "%s %.17g\n" x.name x.value) metrics)

let compare_e2e args metrics =
  match In_channel.with_open_bin (e2e_file args) In_channel.input_all with
  | exception Sys_error _ ->
    print_endline "  (no untraced run of this seed stored; tracing overhead not compared)"
  | text ->
    String.split_on_char '\n' text
    |> List.iter (fun line ->
           match Scanf.sscanf line "%s %f" (fun n v -> (n, v)) with
           | name, untraced -> (
             match List.find_opt (fun x -> x.name = name) metrics with
             | Some x when untraced <> 0.0 ->
               Printf.printf "  traced vs untraced %-14s %+.2f%%\n" name
                 (100.0 *. ((x.value /. untraced) -. 1.0))
             | _ -> ())
           | exception _ -> ())

(* --- main --------------------------------------------------------------- *)

let () =
  let args = parse_args () in
  let run =
    match args.workload with
    | "stock" -> stock
    | "bigprog" -> bigprog
    | "fleet" -> fleet
    | w ->
      Printf.eprintf "perfbench: unknown workload %S (stock, bigprog, fleet)\n" w;
      exit 2
  in
  if not (Sys.file_exists "lib" && Sys.file_exists "perfbench/stock_expected.txt") then begin
    prerr_endline "perfbench: run from the repository root";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  mkdir_p work_dir;
  match run args with
  | exception Check msg ->
    prerr_endline ("perfbench: set-up failed: " ^ msg);
    exit 1
  | p when p.loop.latencies = [] ->
    prerr_endline "perfbench: no job succeeded";
    exit 1
  | p ->
    check_counts_across_runs ~workload:args.workload ~seed:args.seed p.counts;
    Printf.printf "%s seed %d: %d jobs, %s\n" args.workload args.seed
      (List.length p.loop.latencies) (counts_line p.counts);
    let e2e = end_to_end p in
    Printf.printf "wall time (unscaled): job p50 %.3f ms, p90 %.3f ms; calibration unit %.4f ms\n"
      (1000.0 *. percentile p.loop.raw 0.5) (1000.0 *. percentile p.loop.raw 0.9)
      (1000.0 *. p.loop.cal);
    let metrics =
      if args.trace then begin
        let spans = Span.spans () in
        let span_cost = Span.cost_per_span () in
        Span.write
          (Filename.concat work_dir
             (Printf.sprintf "spans-%s-%d.jsonl" args.workload args.seed))
          spans;
        print_shares p.loop spans;
        compare_e2e args e2e;
        per_layer p spans ~span_cost
      end
      else begin
        save_e2e args e2e;
        e2e
      end
    in
    print_result ~correct:(!failed = 0) metrics;
    exit (if !failed = 0 then 0 else 1)
