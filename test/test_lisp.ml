(* Tests for the mini-Lisp: values, the three environment strategies,
   interpreter semantics (§4.3.4's subset plus conveniences), prelude
   functions and the tracing instrumentation. *)

module V = Lisp.Value
module D = Sexp.Datum

let d = Alcotest.testable Sexp.pp D.equal

let eval_str ?strategy ?(input = []) src =
  let i = Lisp.Interp.create ?strategy () in
  Lisp.Prelude.load i;
  Lisp.Interp.provide_input i input;
  V.to_datum (Lisp.Interp.run_program i src)

let check_eval ?strategy ?input name expected src =
  Alcotest.check d name (Sexp.parse expected) (eval_str ?strategy ?input src)

(* ---- values ---- *)

let test_value_roundtrip () =
  let x = Sexp.parse "(a (b 1) \"s\" nil)" in
  Alcotest.check d "of/to datum" x (V.to_datum (V.of_datum x))

let test_value_mutation () =
  let v = V.of_datum (Sexp.parse "(a b)") in
  (match v with
   | V.Pair p -> p.V.car <- V.int 9
   | _ -> Alcotest.fail "expected pair");
  Alcotest.check d "rplaca visible" (Sexp.parse "(9 b)") (V.to_datum v)

let test_value_cycle_safe () =
  let v = V.of_datum (Sexp.parse "(a b)") in
  (match v with
   | V.Pair p -> p.V.cdr <- v
   | _ -> assert false);
  (* must not loop *)
  match V.to_datum v with
  | D.Cons (_, D.Sym "<cycle>") -> ()
  | other -> Alcotest.failf "unexpected snapshot %s" (Sexp.to_string other)

let test_value_eq_vs_equal () =
  let a = V.of_datum (Sexp.parse "(1 2)") in
  let b = V.of_datum (Sexp.parse "(1 2)") in
  Alcotest.(check bool) "equal" true (V.equal a b);
  Alcotest.(check bool) "not eq" false (V.eq a b);
  Alcotest.(check bool) "self eq" true (V.eq a a)

(* ---- environments ---- *)

let env_scenario strategy =
  let e = Lisp.Env.create strategy in
  Lisp.Env.define_global e "g" (V.int 1);
  Lisp.Env.enter_frame e;
  Lisp.Env.bind e "x" (V.int 10);
  Lisp.Env.bind e "g" (V.int 2);
  let x_in = Lisp.Env.lookup e "x" in
  let g_shadowed = Lisp.Env.lookup e "g" in
  Lisp.Env.enter_frame e;
  Lisp.Env.bind e "x" (V.int 20);
  let x_deep = Lisp.Env.lookup e "x" in
  Lisp.Env.exit_frame e;
  let x_back = Lisp.Env.lookup e "x" in
  Lisp.Env.exit_frame e;
  let g_restored = Lisp.Env.lookup e "g" in
  let x_gone = Lisp.Env.lookup_opt e "x" in
  (x_in, g_shadowed, x_deep, x_back, g_restored, x_gone)

let test_env_strategy strategy () =
  let x_in, g_sh, x_deep, x_back, g_res, x_gone = env_scenario strategy in
  Alcotest.(check bool) "x bound" true (V.equal x_in (V.int 10));
  Alcotest.(check bool) "g shadowed" true (V.equal g_sh (V.int 2));
  Alcotest.(check bool) "x rebound deeper" true (V.equal x_deep (V.int 20));
  Alcotest.(check bool) "x restored on exit" true (V.equal x_back (V.int 10));
  Alcotest.(check bool) "g restored at top" true (V.equal g_res (V.int 1));
  Alcotest.(check bool) "x unbound at top" true (x_gone = None)

let test_env_setq_semantics () =
  List.iter
    (fun strategy ->
       let e = Lisp.Env.create strategy in
       Lisp.Env.enter_frame e;
       Lisp.Env.bind e "x" (V.int 1);
       Lisp.Env.set e "x" (V.int 5);
       Alcotest.(check bool) "setq updates binding" true
         (V.equal (Lisp.Env.lookup e "x") (V.int 5));
       Lisp.Env.set e "fresh" (V.int 9);
       Lisp.Env.exit_frame e;
       Alcotest.(check bool) "setq of unbound name creates a global" true
         (V.equal (Lisp.Env.lookup e "fresh") (V.int 9)))
    [ Lisp.Env.Deep; Lisp.Env.Shallow; Lisp.Env.Value_cache ]

let test_env_lookup_costs () =
  (* Deep binding pays per-depth probes; shallow is O(1); the value cache
     turns repeated lookups into hits (§2.3.2). *)
  let depth = 30 in
  let probe strategy =
    let e = Lisp.Env.create strategy in
    Lisp.Env.define_global e "target" (V.int 1);
    for i = 1 to depth do
      Lisp.Env.enter_frame e;
      Lisp.Env.bind e (Printf.sprintf "v%d" i) (V.int i)
    done;
    for _ = 1 to 10 do
      ignore (Lisp.Env.lookup e "target")
    done;
    Lisp.Env.counters e
  in
  let deep = probe Lisp.Env.Deep in
  let shallow = probe Lisp.Env.Shallow in
  let cached = probe Lisp.Env.Value_cache in
  Alcotest.(check bool) "deep pays the a-list walk" true
    (deep.Lisp.Env.probes > 10 * depth);
  Alcotest.(check int) "shallow lookup is one probe each" 10 shallow.Lisp.Env.probes;
  Alcotest.(check int) "value cache: 9 of 10 lookups hit" 9 cached.Lisp.Env.cache_hits;
  Alcotest.(check bool) "value cache beats plain deep" true
    (cached.Lisp.Env.probes < deep.Lisp.Env.probes)

let test_value_cache_invalidation () =
  let e = Lisp.Env.create Lisp.Env.Value_cache in
  Lisp.Env.define_global e "x" (V.int 1);
  ignore (Lisp.Env.lookup e "x");           (* cached *)
  Lisp.Env.enter_frame e;
  Lisp.Env.bind e "x" (V.int 2);            (* must invalidate *)
  Alcotest.(check bool) "sees the new binding" true
    (V.equal (Lisp.Env.lookup e "x") (V.int 2));
  Lisp.Env.exit_frame e;                    (* frame-exit invalidation *)
  Alcotest.(check bool) "sees the restored binding" true
    (V.equal (Lisp.Env.lookup e "x") (V.int 1))

(* ---- interpreter ---- *)

let test_arith () =
  check_eval "add" "7" "(+ 3 4)";
  check_eval "nested" "14" "(* 2 (+ 3 4))";
  check_eval "sub1/add1" "5" "(add1 (sub1 5))";
  check_eval "remainder" "2" "(remainder 17 5)";
  check_eval "comparison" "t" "(greaterp 5 3)";
  check_eval "equality" "t" "(= 4 4)"

let test_lists () =
  check_eval "car" "a" "(car (quote (a b c)))";
  check_eval "cdr" "(b c)" "(cdr (quote (a b c)))";
  check_eval "cons" "(a b)" "(cons (quote a) (quote (b)))";
  check_eval "car of nil" "nil" "(car nil)";
  check_eval "rplaca" "(z b)" "(prog (x) (setq x (list2 (quote a) (quote b))) (rplaca x (quote z)) (return x))";
  check_eval "rplacd" "(a . 5)" "(prog (x) (setq x (cons (quote a) (quote b))) (rplacd x 5) (return x))"

let test_cond_and_logic () =
  check_eval "cond first" "1" "(cond (t 1) (t 2))";
  check_eval "cond fallthrough" "2" "(cond (nil 1) (t 2))";
  check_eval "cond empty" "nil" "(cond (nil 1))";
  check_eval "cond test value" "5" "(cond (5))";
  check_eval "and short-circuit" "nil" "(and nil (car 5))";
  check_eval "or value" "7" "(or nil 7 9)";
  check_eval "not" "t" "(not nil)"

let test_prog () =
  check_eval "loop with go" "120"
    "(prog (n acc) (setq n 5) (setq acc 1) loop (cond ((zerop n) (return acc))) (setq acc (* acc n)) (setq n (- n 1)) (go loop))";
  check_eval "locals start nil" "t" "(prog (x) (return (null x)))";
  check_eval "fallthrough returns nil" "nil" "(prog (x) (setq x 5))";
  check_eval "nested prog return is local" "inner-done"
    "(prog (x) (setq x (prog (y) (return (quote inner-done)))) (return x))"

let test_functions () =
  check_eval "recursion" "3628800"
    "(def fact (lambda (x) (cond ((= x 0) 1) (t (* x (fact (- x 1))))))) (fact 10)";
  check_eval "mutual recursion" "t"
    "(def even (lambda (n) (cond ((zerop n) t) (t (odd (sub1 n))))))
     (def odd (lambda (n) (cond ((zerop n) nil) (t (even (sub1 n))))))
     (even 10)";
  check_eval "dynamic scope" "7"
    "(def getx (lambda () x)) (def callit (lambda (x) (getx))) (callit 7)";
  check_eval "lambda as argument" "(2 3 4)"
    "(mapcar (lambda (n) (add1 n)) (quote (1 2 3)))";
  check_eval "immediate lambda" "9" "((lambda (x) (* x x)) 3)"

let test_errors () =
  let expect_error src =
    match eval_str src with
    | exception Lisp.Interp.Error _ -> ()
    | v -> Alcotest.failf "%s: expected error, got %s" src (Sexp.to_string v)
  in
  expect_error "(car 5)";
  expect_error "(+ 1 (quote a))";
  expect_error "(undefined-fn 1)";
  expect_error "unbound-var";
  expect_error "(fact)";  (* undefined here *)
  expect_error "(/ 1 0)";
  expect_error "(def f (lambda (x) x)) (f 1 2)"

let test_io () =
  check_eval ~input:[ Sexp.parse "(a b)"; Sexp.parse "(c)" ] "read twice" "(a b c)"
    "(append (read) (read))";
  check_eval "read exhausted" "nil" "(read)";
  let i = Lisp.Interp.create () in
  ignore (Lisp.Interp.run_program i "(write (cons 1 nil)) (write 2)");
  Alcotest.(check (list (Alcotest.testable Sexp.pp D.equal))) "output collected"
    [ Sexp.parse "(1)"; Sexp.parse "2" ] (Lisp.Interp.output i)

let test_prelude () =
  check_eval "length" "4" "(length (quote (a b c d)))";
  check_eval "append" "(1 2 3 4)" "(append (quote (1 2)) (quote (3 4)))";
  check_eval "reverse" "(c b a)" "(reverse (quote (a b c)))";
  check_eval "assoc" "(b . 2)" "(assoc (quote b) (quote ((a . 1) (b . 2))))";
  check_eval "member" "(c d)" "(member (quote c) (quote (a b c d)))";
  check_eval "member miss" "nil" "(member (quote z) (quote (a b)))";
  check_eval "nth" "c" "(nth 2 (quote (a b c d)))";
  check_eval "last" "(d)" "(last (quote (a b c d)))";
  check_eval "copy" "(a (b c))" "(copy (quote (a (b c))))";
  check_eval "subst" "(x (x y))" "(subst (quote x) (quote a) (quote (a (a y))))";
  check_eval "filter" "(2 4)"
    "(filter (lambda (n) (zerop (remainder n 2))) (quote (1 2 3 4 5)))";
  check_eval "nconc" "(1 2 3)" "(nconc (list2 1 2) (cons 3 nil))"

let test_strategies_agree () =
  let src =
    "(def f (lambda (x y) (cond ((zerop x) y) (t (f (sub1 x) (cons x y))))))
     (f 5 nil)"
  in
  let results =
    List.map (fun s -> eval_str ~strategy:s src)
      [ Lisp.Env.Deep; Lisp.Env.Shallow; Lisp.Env.Value_cache ]
  in
  match results with
  | [ a; b; c ] ->
    Alcotest.check d "deep = shallow" a b;
    Alcotest.check d "deep = value-cache" a c;
    Alcotest.check d "value" (Sexp.parse "(1 2 3 4 5)") a
  | _ -> assert false

let test_funarg () =
  (* the classic upward funarg: (function ...) captures the referencing
     context at creation; a plain lambda stays dynamically scoped *)
  let captured =
    "(def make-adder (lambda (x) (function (lambda (y) (+ x y)))))
     (def apply-it (lambda (f x) (funcall f 10)))
     (apply-it (make-adder 5) 99)"
  in
  let dynamic =
    "(def make-adder (lambda (x) (lambda (y) (+ x y))))
     (def apply-it (lambda (f x) (f 10)))
     (apply-it (make-adder 5) 99)"
  in
  List.iter
    (fun strategy ->
       Alcotest.check d "funarg sees the captured x" (D.Int 15)
         (eval_str ~strategy captured))
    [ Lisp.Env.Deep; Lisp.Env.Shallow; Lisp.Env.Value_cache ];
  Alcotest.check d "plain lambda sees the caller's x" (D.Int 109) (eval_str dynamic)

let test_funarg_by_name () =
  check_eval "function over a defined name" "7"
    "(def seven (lambda () 7))
     (def call (lambda (f) (funcall f)))
     (call (function seven))"

let test_funarg_env_restored () =
  (* applying a funarg must not disturb the caller's environment *)
  check_eval "environment restored after funarg application" "(99 15)"
    "(def make-adder (lambda (x) (function (lambda (y) (+ x y)))))
     (def apply-it (lambda (f x) (list2 x (funcall f 10))))
     (apply-it (make-adder 5) 99)"

(* ---- tracing ---- *)

let test_tracing_events () =
  let cap = Lisp.Tracer.trace_program "(cdr (quote (a b c)))" in
  let events = Trace.Capture.events cap in
  Alcotest.(check int) "one event" 1 (Array.length events);
  match events.(0) with
  | Trace.Event.Prim { prim = Trace.Event.Cdr; args; result } ->
    Alcotest.check d "arg recorded" (Sexp.parse "(a b c)") (List.hd args);
    Alcotest.check d "result recorded" (Sexp.parse "(b c)") result
  | _ -> Alcotest.fail "expected a cdr event"

let test_tracing_calls () =
  let cap =
    Lisp.Tracer.trace_program
      "(def g (lambda (x) (car x))) (def f (lambda (x) (g (cdr x)))) (f (quote (a b)))"
  in
  let st = Trace.Capture.stats cap in
  Alcotest.(check int) "two calls" 2 st.Trace.Capture.functions;
  Alcotest.(check int) "two prims" 2 st.Trace.Capture.primitives;
  Alcotest.(check int) "nested depth" 2 st.Trace.Capture.max_depth

let test_prelude_not_traced () =
  (* loading the prelude must not contribute events *)
  let i = Lisp.Interp.create () in
  Lisp.Prelude.load i;
  let cap = Lisp.Tracer.attach i in
  Alcotest.(check int) "no events before running" 0 (Trace.Capture.length cap)

(* ---- property tests ---- *)

let gen_list =
  QCheck.Gen.(
    let atom =
      oneof
        [ map (fun n -> D.Int n) (int_range 0 99);
          map (fun i -> D.Sym (Printf.sprintf "a%d" i)) (int_range 0 20) ]
    in
    let rec go depth =
      if depth = 0 then atom
      else
        frequency
          [ (3, atom);
            (2, int_range 0 4 >>= fun len -> map D.list (list_repeat len (go (depth - 1)))) ]
    in
    int_range 0 5 >>= fun len -> map D.list (list_repeat len (go 3)))

let arb_list = QCheck.make ~print:Sexp.to_string gen_list

let prop_value_roundtrip =
  QCheck.Test.make ~name:"value of/to datum round-trip" ~count:200 arb_list (fun x ->
      D.equal x (V.to_datum (V.of_datum x)))

let prop_interp_reverse_involution =
  QCheck.Test.make ~name:"interpreted (reverse (reverse l)) = l" ~count:40 arb_list
    (fun x ->
      let i = Lisp.Interp.create () in
      Lisp.Prelude.load i;
      Lisp.Interp.provide_input i [ x ];
      let r = Lisp.Interp.run_program i "(reverse (reverse (read)))" in
      D.equal x (V.to_datum r))

let prop_interp_append_length =
  QCheck.Test.make ~name:"interpreted length (append a b)" ~count:40
    (QCheck.pair arb_list arb_list) (fun (a, b) ->
      let i = Lisp.Interp.create () in
      Lisp.Prelude.load i;
      Lisp.Interp.provide_input i [ a; b ];
      let r = Lisp.Interp.run_program i "(length (append (read) (read)))" in
      V.to_datum r = D.Int (D.length a + D.length b))

(* The path-list cycle check [to_datum] used before the [on_path] flag:
   quadratic along a spine, kept here as the oracle. *)
let to_datum_memq v =
  let rec go path (v : V.t) : D.t =
    match v with
    | V.Nil -> D.Nil
    | V.T -> D.Sym "t"
    | V.Sym s -> D.Sym s
    | V.Int n -> D.Int n
    | V.Str s -> D.Str s
    | V.Subr name -> D.Sym ("#subr:" ^ name)
    | V.Lambda _ -> D.Sym "#lambda"
    | V.Funarg k -> D.Sym (Printf.sprintf "#funarg%d" k)
    | V.Pair p ->
      if List.memq p path then D.Sym "<cycle>"
      else D.Cons (go (p :: path) p.V.car, go (p :: path) p.V.cdr)
  in
  go [] v

(* A pair graph: [n] fresh pairs, then a list of rplaca/rplacd edits.
   An edit [(i, on_car, j)] points pair [i]'s car (or cdr) at pair [j]
   when [j < n], else at the atom [j]: edits back to an ancestor make
   cycles, two edits to one pair share substructure. *)
let gen_graph =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    list_size (int_range 0 24) (triple (int_bound (n - 1)) bool (int_bound (n + 3)))
    >>= fun edits -> return (n, edits))

let print_graph (n, edits) =
  Printf.sprintf "%d pairs; %s" n
    (String.concat " "
       (List.map
          (fun (i, on_car, j) -> Printf.sprintf "(%s %d %d)" (if on_car then "rplaca" else "rplacd") i j)
          edits))

let build_graph (n, edits) =
  let pairs = Array.init n (fun i -> V.cons (V.int i) V.nil) in
  List.iter
    (fun (i, on_car, j) ->
       let target = if j < n then pairs.(j) else V.int j in
       match pairs.(i) with
       | V.Pair p -> if on_car then p.V.car <- target else p.V.cdr <- target
       | _ -> assert false)
    edits;
  pairs

let prop_to_datum_cycles =
  QCheck.Test.make ~name:"to_datum on cyclic and shared graphs = path-list oracle"
    ~count:500 (QCheck.make ~print:print_graph gen_graph) (fun g ->
      let pairs = build_graph g in
      (* converting every root in turn also checks that each conversion
         leaves no pair flagged for the next *)
      Array.for_all (fun v -> D.equal (to_datum_memq v) (V.to_datum v)) pairs
      && Array.for_all (fun v -> D.equal (to_datum_memq v) (V.to_datum v)) pairs)

let props =
  List.map QCheck_alcotest.to_alcotest
    [ prop_value_roundtrip; prop_to_datum_cycles; prop_interp_reverse_involution;
      prop_interp_append_length ]

let () =
  Alcotest.run "lisp"
    [ ("value",
       [ Alcotest.test_case "roundtrip" `Quick test_value_roundtrip;
         Alcotest.test_case "mutation" `Quick test_value_mutation;
         Alcotest.test_case "cycle-safe snapshot" `Quick test_value_cycle_safe;
         Alcotest.test_case "eq vs equal" `Quick test_value_eq_vs_equal ]);
      ("env",
       [ Alcotest.test_case "deep" `Quick (test_env_strategy Lisp.Env.Deep);
         Alcotest.test_case "shallow" `Quick (test_env_strategy Lisp.Env.Shallow);
         Alcotest.test_case "value-cache" `Quick (test_env_strategy Lisp.Env.Value_cache);
         Alcotest.test_case "setq" `Quick test_env_setq_semantics;
         Alcotest.test_case "lookup costs" `Quick test_env_lookup_costs;
         Alcotest.test_case "cache invalidation" `Quick test_value_cache_invalidation ]);
      ("interp",
       [ Alcotest.test_case "arithmetic" `Quick test_arith;
         Alcotest.test_case "lists" `Quick test_lists;
         Alcotest.test_case "cond/logic" `Quick test_cond_and_logic;
         Alcotest.test_case "prog" `Quick test_prog;
         Alcotest.test_case "functions" `Quick test_functions;
         Alcotest.test_case "errors" `Quick test_errors;
         Alcotest.test_case "io" `Quick test_io;
         Alcotest.test_case "prelude" `Quick test_prelude;
         Alcotest.test_case "strategies agree" `Quick test_strategies_agree;
         Alcotest.test_case "funargs" `Quick test_funarg;
         Alcotest.test_case "funarg by name" `Quick test_funarg_by_name;
         Alcotest.test_case "funarg restores env" `Quick test_funarg_env_restored ]);
      ("tracing",
       [ Alcotest.test_case "events" `Quick test_tracing_events;
         Alcotest.test_case "calls" `Quick test_tracing_calls;
         Alcotest.test_case "prelude untraced" `Quick test_prelude_not_traced ]);
      ("properties", props) ]
