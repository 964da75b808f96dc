(* Random well-formed Mini programs, shared by the pipeline fuzz tests
   and the VM differential test. *)

(* Generates terminating programs: functions may only call
   lower-numbered functions, loops have static bounds, divisors are
   offset to be nonzero. *)
let program_gen =
  let open QCheck.Gen in
  let rec expr_gen ~callees ~locals n =
    if n <= 1 then
      oneof
        [ map (fun k -> Printf.sprintf "%d" k) (int_range (-9) 99);
          (if locals = [] then map string_of_int (int_range 0 9)
           else oneofl locals) ]
    else
      let sub = expr_gen ~callees ~locals (n / 2) in
      oneof
        ([
           map (fun k -> string_of_int k) (int_range 0 99);
           map2 (Printf.sprintf "(%s + %s)") sub sub;
           map2 (Printf.sprintf "(%s - %s)") sub sub;
           map2 (Printf.sprintf "(%s * %s)") sub sub;
           (* the divisor is m%7+8, in [2,14]: never zero *)
           map2 (Printf.sprintf "(%s / (%s %% 7 + 8))") sub sub;
           map2 (Printf.sprintf "(%s < %s)") sub sub;
           map2 (Printf.sprintf "(%s && %s)") sub sub;
         ]
        @
        match callees with
        | [] -> []
        | _ ->
          [ (let* f = oneofl callees in
             let* a = sub in
             return (Printf.sprintf "%s(%s)" f a)) ])
  in
  let stmt_gen ~callees ~locals =
    let expr = expr_gen ~callees ~locals 6 in
    oneof
      [
        (let* l = oneofl locals in
         map (Printf.sprintf "%s = %s;" l) expr);
        (let* l = oneofl locals in
         let* bound = int_range 1 5 in
         map
           (fun e ->
             Printf.sprintf "for (loopv = 0; loopv < %d; loopv = loopv + 1) { %s = %s + %s; }"
               bound l l e)
           expr);
        (let* c = expr in
         let* l = oneofl locals in
         let* e = expr in
         return (Printf.sprintf "if (%s) { %s = %s; }" c l e));
        map (Printf.sprintf "return %s;") expr;
      ]
  in
  let fun_gen ~name ~callees =
    let locals = [ "a"; "b" ] in
    let* stmts = list_size (int_range 1 5) (stmt_gen ~callees ~locals) in
    return
      (Printf.sprintf "fun %s(a) {\n  var b;\n  var loopv;\n  %s\n  return a + b;\n}"
         name (String.concat "\n  " stmts))
  in
  let* n_funs = int_range 1 5 in
  let rec build i acc callees =
    if i > n_funs then return (List.rev acc)
    else
      let name = Printf.sprintf "f%d" i in
      let* f = fun_gen ~name ~callees in
      build (i + 1) (f :: acc) (name :: callees)
  in
  let* funs = build 1 [] [] in
  let* main_body =
    list_size (int_range 1 4)
      (stmt_gen ~callees:(List.init n_funs (fun i -> Printf.sprintf "f%d" (i + 1)))
         ~locals:[ "a"; "b" ])
  in
  return
    (String.concat "\n\n" funs
    ^ Printf.sprintf
        "\n\nfun main() {\n  var a;\n  var b;\n  var loopv;\n  %s\n  return b %% 256;\n}"
        (String.concat "\n  " main_body))
