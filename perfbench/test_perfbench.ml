(* Tests of the benchmark's own parts: the bigprog generator, and the
   expected stock outputs, which are re-derived here by plain OCaml
   versions of quick, matrix and sort — never by the compiler under
   test. *)

open Perfbench

let seeds = List.init 6 (fun i -> (i * 7919) + 1)

let compile source =
  match
    Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options source
  with
  | Ok obj -> obj
  | Error e -> Alcotest.failf "generated program does not compile: %s" e

(* --- generator ---------------------------------------------------------- *)

let test_deterministic () =
  List.iter
    (fun params ->
      List.iter
        (fun seed ->
          let a = Gen.generate ~seed params and b = Gen.generate ~seed params in
          Alcotest.(check string) "same seed, same source" a.source b.source)
        seeds;
      let a = Gen.generate ~seed:1 params and b = Gen.generate ~seed:2 params in
      Alcotest.(check bool) "other seed, other source" true (a.source <> b.source))
    [ Gen.bigprog; Gen.fleet ]

let test_size () =
  let g = Gen.generate ~seed:1 Gen.bigprog in
  Alcotest.(check int) "routines" 500 (Array.length g.routines);
  let obj = compile g.source in
  (* main besides the generated routines *)
  Alcotest.(check int) "symbols" 501 (Array.length obj.symbols)

let test_no_dispatch_reach () =
  List.iter
    (fun seed ->
      List.iter
        (fun params ->
          let g = Gen.generate ~seed params in
          Alcotest.(check bool) "table entries reach no dispatcher" false
            (Gen.reaches_dispatch g);
          Array.iter
            (fun name ->
              let r = Array.to_list g.routines |> List.find (fun r -> r.Gen.name = name) in
              Alcotest.(check bool) "entries sit below the dispatch layer" true
                (r.layer < g.dispatch_layer))
            g.table_entries)
        [ Gen.bigprog; Gen.fleet ])
    (List.init 40 (fun i -> i + 1))

(* Run under a cycle cap; the program must halt, and in the dynamic
   call graph the profile records no table entry reaches a
   dispatcher. *)
let test_halts () =
  List.iter
    (fun (params, seed) ->
      let g = Gen.generate ~seed params in
      let obj = compile g.source in
      let config = { Vm.Machine.default_config with max_cycles = Some 50_000_000 } in
      let m = Vm.Machine.create ~config obj in
      (match Vm.Machine.run m with
      | Vm.Machine.Halted -> ()
      | Vm.Machine.Faulted f ->
        Alcotest.failf "seed %d faulted: %s" seed (Format.asprintf "%a" Vm.Machine.pp_fault f)
      | Vm.Machine.Running -> Alcotest.failf "seed %d did not halt" seed);
      Alcotest.(check (option int)) "main returns 0" (Some 0) (Vm.Machine.result m);
      let gmon = Vm.Machine.profile m in
      let func addr =
        Option.map
          (fun i -> obj.symbols.(i).name)
          (Objcode.Objfile.func_id_of_addr obj addr)
      in
      let edges =
        List.filter_map
          (fun (a : Gmon.arc) ->
            match (func a.a_from, func a.a_self) with
            | Some f, Some t -> Some (f, t)
            | _ -> None)
          gmon.arcs
      in
      let rec reach seen = function
        | [] -> seen
        | f :: rest when List.mem f seen -> reach seen rest
        | f :: rest ->
          reach (f :: seen)
            (List.filter_map (fun (a, b) -> if a = f then Some b else None) edges @ rest)
      in
      Array.iter
        (fun e ->
          let hit = List.filter (fun f -> f.[0] = 'd') (reach [] [ e ]) in
          Alcotest.(check (list string)) "no dispatcher reachable from an entry" [] hit)
        g.table_entries)
    [ (Gen.bigprog, 1); (Gen.bigprog, 2); (Gen.fleet, 1); (Gen.fleet, 3) ]

(* --- stock expected outputs ---------------------------------------------- *)

let quick () =
  let acc = ref 0 in
  for _ = 0 to 299 do
    for i = 1 to 100 do
      acc := !acc + (i * i)
    done
  done;
  Printf.sprintf "%d\n" !acc

let matrix () =
  let a = Array.init 256 (fun i -> i mod 7) and b = Array.init 256 (fun i -> i mod 5) in
  let c = Array.make 256 0 in
  for i = 0 to 15 do
    for j = 0 to 15 do
      let s = ref 0 in
      for k = 0 to 15 do
        s := !s + (a.((i * 16) + k) * b.((k * 16) + j))
      done;
      c.((i * 16) + j) <- !s
    done
  done;
  Printf.sprintf "%d\n" c.(17)

let sort () =
  let total = ref 0 in
  for round = 0 to 39 do
    let x = ref (round + 1) in
    let data =
      Array.init 512 (fun _ ->
          x := ((!x * 1103) + 12345) mod 65536;
          !x mod 1000)
    in
    Array.sort compare data;
    let s = ref 0 in
    Array.iteri (fun i v -> s := !s + (v * i)) data;
    total := !total + (!s mod 97)
  done;
  Printf.sprintf "%d\n" !total

let test_stock_expected () =
  let expected =
    In_channel.with_open_text "stock_expected.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun l -> Scanf.sscanf l "%s %d %S" (fun n r o -> (n, (r, o))))
  in
  List.iter
    (fun (name, output) ->
      Alcotest.(check (pair int string)) name (0, output) (List.assoc name expected))
    [ ("quick", quick ()); ("matrix", matrix ()); ("sort", sort ()) ]

let () =
  Alcotest.run "perfbench"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same source" `Quick test_deterministic;
          Alcotest.test_case "bigprog size" `Quick test_size;
          Alcotest.test_case "no entry reaches a dispatcher" `Quick test_no_dispatch_reach;
          Alcotest.test_case "programs halt under a cycle cap" `Quick test_halts;
        ] );
      ( "stock",
        [ Alcotest.test_case "expected outputs re-derived" `Quick test_stock_expected ] );
    ]
