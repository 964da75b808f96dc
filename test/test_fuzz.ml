(* Robustness: random and adversarial inputs at every boundary of the
   system must produce clean errors (or clean faults), never OCaml
   exceptions, and the analyses must hold their invariants on every
   well-formed program a generator can produce. *)


(* ------------------------------------------------------------------ *)
(* Random text into the parsers *)

let token_soup_gen =
  QCheck.Gen.(
    let word =
      oneofl
        [ "fun"; "var"; "array"; "if"; "else"; "while"; "for"; "return"; "x";
          "main"; "f"; "42"; "0"; "+"; "-"; "*"; "/"; "%"; "("; ")"; "{"; "}";
          "["; "]"; ";"; ","; "="; "=="; "<"; "<="; "&&"; "||"; "!"; "//c\n";
          "/*c*/" ]
    in
    map (String.concat " ") (list_size (int_range 0 60) word))

let parser_never_crashes =
  QCheck.Test.make ~name:"parser: token soup yields a program or Parser.Error"
    ~count:1000
    (QCheck.make ~print:Fun.id token_soup_gen)
    (fun src ->
      match Mini.Parser.parse_program src with
      | _ -> true
      | exception Mini.Parser.Error _ -> true)

let lexer_never_crashes =
  QCheck.Test.make ~name:"lexer: arbitrary bytes yield tokens or Lexer.Error"
    ~count:1000
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun src ->
      match Mini.Lexer.tokenize src with
      | _ -> true
      | exception Mini.Lexer.Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Random bytes into the binary readers *)

let gmon_reader_total =
  QCheck.Test.make ~name:"gmon reader: random bytes never raise" ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s -> match Gmon.of_bytes s with Ok _ | Error _ -> true)

let gmon_reader_bitflips =
  QCheck.Test.make ~name:"gmon reader: bit-flipped real files never raise"
    ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (pos_seed, bit) ->
      let g =
        {
          Gmon.hist =
            { h_lowpc = 0; h_highpc = 16; h_bucket_size = 1;
              h_counts = Array.init 16 (fun i -> i) };
          arcs = [ { Gmon.a_from = 2; a_self = 4; a_count = 9 } ];
          ticks_per_second = 60;
          cycles_per_tick = 16_666;
          runs = 1;
        }
      in
      let bytes = Bytes.of_string (Gmon.to_bytes g) in
      let pos = pos_seed mod Bytes.length bytes in
      Bytes.set bytes pos
        (Char.chr (Char.code (Bytes.get bytes pos) lxor (1 lsl (bit mod 8))));
      match Gmon.of_bytes (Bytes.to_string bytes) with
      | Ok _ | Error _ -> true)

let salvage_reader_total =
  QCheck.Test.make ~name:"salvage decoder: random bytes never raise; Ok validates"
    ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s ->
      match Gmon.decode ~mode:`Salvage s with
      | Error _ -> true
      | Ok (g, _) -> Gmon.validate g = Ok ())

(* A random profile, truncated at a random point and peppered with
   random byte flips: salvage must never raise, and anything it
   recovers must validate. Under pure truncation it must additionally
   be a sub-profile — salvage never invents ticks or arcs. *)
let random_profile_gen =
  QCheck.Gen.(
    let* highpc = int_range 1 24 in
    let* ticks =
      list_size (int_range 0 8) (pair (int_range 0 (highpc - 1)) (int_range 0 99))
    in
    let* arcs =
      list_size (int_range 0 8)
        (triple (int_range (-2) 30) (int_range 0 30) (int_range 0 50))
    in
    let hist = Gmon.make_hist ~lowpc:0 ~highpc ~bucket_size:1 in
    let counts = Array.copy hist.Gmon.h_counts in
    List.iter (fun (b, c) -> counts.(b) <- c) ticks;
    let arcs =
      List.sort_uniq
        (fun (a : Gmon.arc) b -> compare (a.a_from, a.a_self) (b.a_from, b.a_self))
        (List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) arcs)
    in
    return
      { Gmon.hist = { hist with h_counts = counts }; arcs;
        ticks_per_second = 60; cycles_per_tick = 16_666; runs = 1 })

let salvage_truncation_is_subset =
  QCheck.Test.make
    ~name:"salvage decoder: truncated files yield valid sub-profiles"
    ~count:300
    (QCheck.make
       ~print:(fun (g, cut) -> Printf.sprintf "cut=%d of %a" cut
                  (fun () -> Format.asprintf "%a" Gmon.pp) g)
       QCheck.Gen.(pair random_profile_gen small_nat))
    (fun (g, cut_seed) ->
      let bytes = Gmon.to_bytes g in
      let cut = cut_seed mod String.length bytes in
      match Gmon.decode ~mode:`Salvage (String.sub bytes 0 cut) with
      | Error _ -> true (* header damage is unrecoverable by design *)
      | Ok (s, report) ->
        Gmon.validate s = Ok ()
        && Gmon.report_degraded report
        && s.hist.h_highpc = g.hist.h_highpc
        && Array.for_all2 ( >= ) g.hist.h_counts s.hist.h_counts
        && List.for_all (fun a -> List.mem a g.Gmon.arcs) s.Gmon.arcs)

let salvage_mutations_never_raise =
  QCheck.Test.make
    ~name:"salvage decoder: flipped+truncated files never raise; Ok validates"
    ~count:300
    (QCheck.make
       ~print:(fun (_, cut, flips) ->
         Printf.sprintf "cut=%d flips=%d" cut (List.length flips))
       QCheck.Gen.(
         triple random_profile_gen small_nat
           (list_size (int_range 0 5) (pair small_nat (int_range 0 7)))))
    (fun (g, cut_seed, flips) ->
      let bytes = Gmon.to_bytes g in
      let cut = 1 + (cut_seed mod (String.length bytes - 1)) in
      let b = Bytes.of_string (String.sub bytes 0 cut) in
      List.iter
        (fun (pos_seed, bit) ->
          let pos = pos_seed mod Bytes.length b in
          Bytes.set b pos
            (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit))))
        flips;
      let s = Bytes.to_string b in
      (match Gmon.decode ~mode:`Strict s with Ok _ | Error _ -> ());
      match Gmon.decode ~mode:`Salvage s with
      | Error e -> e.Gmon.de_offset >= 0 && e.de_offset <= cut
      | Ok (g', _) -> Gmon.validate g' = Ok ())

let icount_reader_total =
  QCheck.Test.make ~name:"icount reader: random bytes never raise" ~count:500
    QCheck.(string_gen Gen.(char_range '\000' '\255'))
    (fun s -> match Gmon.Icount.of_bytes s with Ok _ | Error _ -> true)

let objfile_reader_total =
  QCheck.Test.make ~name:"objfile reader: random text never raises" ~count:500
    QCheck.(string_gen Gen.printable)
    (fun s ->
      match Objcode.Objfile.of_string ("MINIOBJ 1\n" ^ s) with
      | Ok _ | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Random well-formed programs through the whole pipeline *)

let program_gen = Mini_gen.program_gen

let pipeline_on_random_programs =
  QCheck.Test.make
    ~name:"generated programs compile, run, and analyze with conserved time"
    ~count:60
    (QCheck.make ~print:Fun.id program_gen)
    (fun src ->
      match
        Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options
          src
      with
      | Error _ -> false (* the generator only makes well-formed programs *)
      | Ok o -> (
        (match Objcode.Objfile.validate o with Ok () -> () | Error es ->
          QCheck.Test.fail_reportf "invalid objfile: %s" (String.concat "; " es));
        let m =
          Vm.Machine.create
            ~config:{ Vm.Machine.default_config with max_cycles = Some 3_000_000 }
            o
        in
        match Vm.Machine.run m with
        | Vm.Machine.Running -> false
        | Vm.Machine.Faulted f ->
          (* generated divisions are nonzero and loops bounded; the
             only legitimate fault is the safety cap *)
          f.reason = "cycle limit exceeded"
        | Vm.Machine.Halted -> (
          match Gprof_core.Report.analyze o (Vm.Machine.profile m) with
          | Error e -> QCheck.Test.fail_reportf "analyze failed: %s" e
          | Ok r ->
            let p = r.profile in
            let rows = Gprof_core.Flat.rows p in
            let sum = List.fold_left (fun a (_, s, _, _) -> a +. s) 0.0 rows in
            abs_float (sum +. p.unattributed -. p.total_time) < 1e-6)))

let transformed_random_programs_agree =
  QCheck.Test.make
    ~name:"constant folding and inlining preserve generated-program results"
    ~count:40
    (QCheck.make ~print:Fun.id program_gen)
    (fun src ->
      let run options =
        match Compile.Codegen.compile_source ~options src with
        | Error _ -> None
        | Ok o -> (
          let m =
            Vm.Machine.create
              ~config:{ Vm.Machine.default_config with max_cycles = Some 3_000_000 }
              o
          in
          match Vm.Machine.run m with
          | Vm.Machine.Halted -> Some (Vm.Machine.result m, Vm.Machine.output m)
          | _ -> None)
      in
      let plain = run Compile.Codegen.default_options in
      let folded =
        run { Compile.Codegen.default_options with fold = true }
      in
      let inlined =
        run
          { Compile.Codegen.default_options with
            inline = [ "f1"; "f2"; "f3"; "f4"; "f5" ] }
      in
      match plain with
      | None -> true (* hit the safety cap; nothing to compare *)
      | Some r -> folded = Some r && inlined = Some r)

(* ------------------------------------------------------------------ *)
(* Corrupted executables into the VM *)

let corrupt_instr_gen =
  QCheck.Gen.(
    let* which = int_range 0 10_000 in
    let* op = int_range 0 9 in
    let* operand = int_range (-5) 2000 in
    return (which, op, operand))

let vm_survives_corrupt_code =
  QCheck.Test.make ~name:"VM: corrupted object code faults cleanly" ~count:300
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       corrupt_instr_gen)
    (fun (which, op, operand) ->
      let o =
        match
          Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options
            Workloads.Programs.quick.w_source
        with
        | Ok o -> o
        | Error _ -> assert false
      in
      let text = Array.copy o.Objcode.Objfile.text in
      let pos = which mod Array.length text in
      let evil : Objcode.Instr.t =
        match op with
        | 0 -> Jump operand
        | 1 -> Jumpz operand
        | 2 -> Call (operand, 1)
        | 3 -> Calli 3
        | 4 -> Load operand
        | 5 -> Store operand
        | 6 -> Aload operand
        | 7 -> Gload operand
        | 8 -> Ret
        | _ -> Pop
      in
      text.(pos) <- evil;
      let o = { o with Objcode.Objfile.text } in
      (* validation may reject it outright; if it passes, the VM must
         reach a clean terminal state under the cycle cap *)
      match Objcode.Objfile.validate o with
      | Error _ -> true
      | Ok () -> (
        let m =
          Vm.Machine.create
            ~config:{ Vm.Machine.default_config with max_cycles = Some 3_000_000 }
            o
        in
        match Vm.Machine.run m with
        | Vm.Machine.Halted | Vm.Machine.Faulted _ -> true
        | Vm.Machine.Running -> false))

(* Arc records pointing anywhere must not break the analyzer. *)
let analyzer_survives_junk_arcs =
  QCheck.Test.make ~name:"analyzer: arbitrary arc records never crash" ~count:300
    QCheck.(
      list_of_size Gen.(int_range 0 30)
        (triple (int_range (-10) 100) (int_range (-10) 100) (int_range 0 50)))
    (fun raw ->
      let o = Workloads.Figure4.objfile in
      let n = Array.length o.Objcode.Objfile.text in
      let hist = Gmon.make_hist ~lowpc:0 ~highpc:n ~bucket_size:1 in
      let arcs =
        List.sort_uniq
          (fun (a : Gmon.arc) b -> compare (a.a_from, a.a_self) (b.a_from, b.a_self))
          (List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) raw)
      in
      let g =
        { Gmon.hist; arcs; ticks_per_second = 60; cycles_per_tick = 16_666;
          runs = 1 }
      in
      match Gprof_core.Report.analyze o g with Ok _ | Error _ -> true)

let () =
  (* Pin the generator seed: this suite drives whole-program execution,
     so runtime and outcomes must not wander run to run. *)
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260705";
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fuzz"
    [
      ( "text inputs",
        [ qt parser_never_crashes; qt lexer_never_crashes ] );
      ( "binary inputs",
        [ qt gmon_reader_total; qt gmon_reader_bitflips; qt salvage_reader_total;
          qt salvage_truncation_is_subset; qt salvage_mutations_never_raise;
          qt icount_reader_total; qt objfile_reader_total ] );
      ( "generated programs",
        [ qt pipeline_on_random_programs; qt transformed_random_programs_agree ] );
      ( "corrupted state",
        [ qt vm_survives_corrupt_code; qt analyzer_survives_junk_arcs ] );
    ]
