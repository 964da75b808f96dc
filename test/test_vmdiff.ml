(* Differential test of the VM's dispatch loop against the reference
   interpreter in [Ref_vm]: on the stock workloads under a matrix of
   configurations, on generated programs, and on hand-assembled
   objects that fault at the edges, both machines must agree on every
   observable — status and fault, cycles, ticks, output, result, the
   gmon/sprof/epoch bytes, instruction and dispatch counts, pcounts,
   mcount cycles, the oracle's statistics and the published metrics. *)

module type VM = sig
  type t

  val create : config:Vm.Machine.config -> Objcode.Objfile.t -> t
  val run : t -> Vm.Machine.status
  val run_cycles : t -> int -> Vm.Machine.status
  val status : t -> Vm.Machine.status
  val cycles : t -> int
  val ticks : t -> int
  val output : t -> string
  val result : t -> int option
  val pcounts : t -> int array
  val instruction_counts : t -> int array option
  val mcount_cycles : t -> int
  val instructions_executed : t -> int
  val dispatch_counts : t -> (string * int) list
  val observe : t -> Obs.Metrics.t -> unit
  val the_oracle : t -> Vm.Oracle.t option
  val stack_folded : t -> (int array * int) list
  val sprof : t -> Gmon.Sprof.t option
  val profile : t -> Gmon.t
  val epochs : t -> Gmon.Epoch.t option
  val profiling_on : t -> unit
  val profiling_off : t -> unit
  val reset_profile : t -> unit
end

module New : VM = struct
  include Vm.Machine

  let create ~config o = create ~config o
end

module Ref : VM = Ref_vm.Machine

(* How a machine is driven: to completion, or in [run_cycles] slices
   (recording where every slice stopped), optionally toggling the
   profiler between slices the way a kgmon script does. *)
type drive = Whole | Slices of int | Toggling of int

let status_string = function
  | Vm.Machine.Running -> "running"
  | Halted -> "halted"
  | Faulted f -> Format.asprintf "%a" Vm.Machine.pp_fault f

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let hex s = Digest.to_hex (Digest.string s)

(* Run [o] on machine [M] and list every observable, labelled. *)
let observe (type a) (module M : VM with type t = a) ~config drive o =
  let m = M.create ~config o in
  let stops = Buffer.create 64 in
  let slices budget ~toggle =
    let rec go k =
      if toggle then begin
        match k mod 7 with
        | 2 -> M.profiling_off m
        | 4 -> M.profiling_on m
        | 5 when k = 5 -> M.reset_profile m
        | _ -> ()
      end;
      let s = M.run_cycles m budget in
      Printf.bprintf stops "%d;" (M.cycles m);
      match s with Running -> go (k + 1) | _ -> ()
    in
    go 0
  in
  (match drive with
  | Whole -> ignore (M.run m)
  | Slices n -> slices n ~toggle:false
  | Toggling n -> slices n ~toggle:true);
  let opt f = function None -> "none" | Some x -> f x in
  let oracle orc =
    String.concat " "
      (List.map
         (fun (callee, (s : Vm.Oracle.fun_stat)) ->
           Printf.sprintf "%d:%d/%d/%d" callee s.f_calls s.f_self_cycles
             s.f_total_cycles)
         (Vm.Oracle.fun_stats orc)
      @ List.map
          (fun ((site, callee), (a : Vm.Oracle.arc_stat)) ->
            Printf.sprintf "%d>%d:%d/%d" site callee a.ar_calls a.ar_total_cycles)
          (Vm.Oracle.arc_stats orc))
  in
  let metrics =
    let reg = Obs.Metrics.create () in
    M.observe m reg;
    Obs.Metrics.dump reg
  in
  [
    ("status", status_string (M.status m));
    ("slice stops", hex (Buffer.contents stops));
    ("cycles", string_of_int (M.cycles m));
    ("ticks", string_of_int (M.ticks m));
    ("mcount cycles", string_of_int (M.mcount_cycles m));
    ("output", hex (M.output m));
    ("result", opt string_of_int (M.result m));
    ("instructions", string_of_int (M.instructions_executed m));
    ( "dispatch",
      String.concat " "
        (List.map (fun (g, n) -> Printf.sprintf "%s=%d" g n) (M.dispatch_counts m)) );
    ("pcounts", ints (M.pcounts m));
    ("icounts", opt (fun a -> hex (ints a)) (M.instruction_counts m));
    ("gmon", hex (Gmon.to_bytes (M.profile m)));
    ("sprof", opt (fun s -> hex (Gmon.Sprof.to_bytes s)) (M.sprof m));
    ("epochs", opt (fun e -> hex (Gmon.Epoch.to_bytes e)) (M.epochs m));
    ( "stacks",
      hex
        (String.concat ";"
           (List.map (fun (s, n) -> ints s ^ "=" ^ string_of_int n) (M.stack_folded m)))
    );
    ("oracle", opt oracle (M.the_oracle m));
    ("metrics", metrics);
  ]

(* Both machines agree on every observable; returns the new machine's
   status for callers that also pin down what happened. *)
let same ?(drive = Whole) ~config name o =
  let want = observe (module Ref) ~config drive o in
  let got = observe (module New) ~config drive o in
  List.iter2
    (fun (k, w) (_, g) -> Alcotest.(check string) (Printf.sprintf "%s: %s" name k) w g)
    want got;
  List.assoc "status" got

(* ------------------------------------------------------------------ *)
(* Configurations *)

let default = Vm.Machine.default_config

let everything =
  {
    default with
    cycles_per_tick = 997;
    hist_bucket_size = 3;
    oracle = true;
    stack_interval = Some 2;
    stack_capacity = Some 16;
    count_instructions = true;
    tick_jitter = 0.3;
    seed = 11;
    epoch_ticks = Some 4;
  }

let configs =
  [
    ("default", default, Whole);
    ("sliced", default, Slices 77_777);
    ("oracle", { default with oracle = true }, Whole);
    ( "stack sampling",
      { default with cycles_per_tick = 997; stack_interval = Some 2; stack_capacity = Some 16 },
      Whole );
    ("epochs, toggled", { default with cycles_per_tick = 997; epoch_ticks = Some 5 }, Toggling 50_000);
    ("jitter", { default with tick_jitter = 0.4; seed = 7 }, Whole);
    ("injected fault", { default with fault_after_instr = Some 123_457 }, Whole);
    ("cycle cap", { default with max_cycles = Some 1_000_003 }, Whole);
    ( "bucket 4, callee keying",
      { default with hist_bucket_size = 4; keying = Vm.Monitor.Callee_primary },
      Whole );
    ("monitoring off", { default with monitoring = false; histogram = false }, Whole);
    ("icounts, metrics off", { default with count_instructions = true; metrics = false }, Whole);
    ("everything, sliced", everything, Slices 10_007);
  ]

let compile_workload w =
  match Workloads.Driver.compile w with
  | Ok o -> o
  | Error e -> Alcotest.failf "%s: %s" w.Workloads.Programs.w_name e

let workload_case w =
  let name = w.Workloads.Programs.w_name in
  Alcotest.test_case name `Slow (fun () ->
      let o = compile_workload w in
      List.iter
        (fun (cname, config, drive) ->
          ignore (same ~drive ~config (name ^ ", " ^ cname) o))
        configs)

(* ------------------------------------------------------------------ *)
(* Generated programs *)

let compile_source src =
  Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options src

let generated_configs = [ (default, Whole); (everything, Slices 10_007) ]

let fuzz_programs =
  QCheck.Test.make ~name:"fuzz programs: both machines agree" ~count:40
    (QCheck.make ~print:Fun.id Mini_gen.program_gen)
    (fun src ->
      match compile_source src with
      | Error _ -> QCheck.assume_fail ()
      | Ok o ->
        List.iter (fun (config, drive) -> ignore (same ~drive ~config "fuzz" o)) generated_configs;
        true)

let perfbench_programs () =
  for seed = 1 to 20 do
    let src = (Perfbench.Gen.generate ~seed Perfbench.Gen.fleet).source in
    match compile_source src with
    | Error e -> Alcotest.failf "seed %d: %s" seed e
    | Ok o ->
      List.iter
        (fun (config, drive) ->
          let status = same ~drive ~config (Printf.sprintf "seed %d" seed) o in
          Alcotest.(check string) (Printf.sprintf "seed %d halts" seed) "halted" status)
        generated_configs
  done

(* ------------------------------------------------------------------ *)
(* Hand-assembled edge faults *)

module A = Objcode.Asm

let asm_fun name items = { A.name; items = List.map (fun i -> A.Ins i) items; profiled = true }

let assemble funs =
  match
    A.assemble
      { A.a_globals = []; a_arrays = []; a_funs = funs; a_entry = "main"; a_source = "edge" }
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "assemble: %s" e

let leaf = asm_fun "f" [ A.AMcount; A.ALoad 0; A.ARet ]

(* The status must be exactly [want], on both machines. *)
let expect ?drive ?(config = default) name o want =
  Alcotest.(check string) name want (same ?drive ~config name o)

let test_underflow_in_call_args () =
  (* Two of the three arguments exist: the third pop underflows. *)
  let o = assemble [ asm_fun "main" [ A.AConst 5; A.AConst 6; A.ACall ("f", 3); A.ARet ]; leaf ] in
  expect "partial argument pop" o "fault at pc 2: operand stack underflow"

let test_pc_outside_text () =
  let o = assemble [ leaf; asm_fun "main" [ A.AConst 1 ] ] in
  expect "fall off the end" o
    (Printf.sprintf "fault at pc %d: pc outside text segment" (Array.length o.text));
  let o = assemble [ asm_fun "main" [ A.AConst 1; A.ARet ]; leaf ] in
  o.text.(0) <- Objcode.Instr.Jump (-4);
  expect "jump below text" o "fault at pc -4: pc outside text segment"

let test_depth_limit () =
  let o = assemble [ asm_fun "main" [ A.AMcount; A.ACall ("main", 0); A.ARet ] ] in
  expect ~config:{ default with max_depth = 50; oracle = true } "depth limit" o
    "fault at pc 1: call depth limit exceeded"

let test_huge_local_count () =
  let o =
    assemble
      [ asm_fun "f" [ A.AEnter max_int; A.ALoad 0; A.ARet ];
        asm_fun "main" [ A.AConst 1; A.ACall ("f", 1); A.ARet ] ]
  in
  expect "Enter max_int" o
    (Printf.sprintf "fault at pc %d: local count too large" o.symbols.(0).Objcode.Objfile.addr)

let test_fault_after_zero () =
  let o = compile_workload Workloads.Programs.quick in
  expect ~config:{ default with fault_after_instr = Some 0 } "fault_after_instr = 0" o
    (Printf.sprintf "fault at pc %d: %s" o.entry Vm.Machine.injected_fault_reason)

let test_cycle_cap_exact () =
  let o = compile_workload Workloads.Programs.quick in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  let total = Vm.Machine.cycles m in
  expect ~config:{ default with max_cycles = Some total } "cap = total" o "halted";
  let capped = { default with max_cycles = Some (total - 1) } in
  match same ~config:capped "cap = total - 1" o with
  | s when String.ends_with ~suffix:"cycle limit exceeded" s -> ()
  | s -> Alcotest.failf "cap = total - 1: %s" s

let test_slices () =
  let o = compile_workload Workloads.Programs.quick in
  expect ~drive:(Slices 1) "slices of 1" o "halted";
  expect ~drive:(Slices 77_777) ~config:everything "slices of 77777" o "halted"

let () =
  Alcotest.run "vmdiff"
    [
      ( "workloads",
        List.map workload_case
          Workloads.Programs.[ quick; matrix; sort ] );
      ( "generated",
        [
          QCheck_alcotest.to_alcotest fuzz_programs;
          Alcotest.test_case "perfbench seeds 1-20" `Slow perfbench_programs;
        ] );
      ( "edges",
        [
          Alcotest.test_case "underflow in call arguments" `Quick test_underflow_in_call_args;
          Alcotest.test_case "pc outside text" `Quick test_pc_outside_text;
          Alcotest.test_case "depth limit" `Quick test_depth_limit;
          Alcotest.test_case "Enter max_int" `Quick test_huge_local_count;
          Alcotest.test_case "fault_after_instr = 0" `Quick test_fault_after_zero;
          Alcotest.test_case "cycle cap hit exactly" `Quick test_cycle_cap_exact;
          Alcotest.test_case "run_cycles slices" `Quick test_slices;
        ] );
    ]
