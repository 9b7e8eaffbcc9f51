exception Error of string

type hooks = {
  on_prim : string -> Value.t list -> Value.t -> unit;
  on_call : string -> int -> unit;
  on_return : string -> unit;
}

let no_hooks =
  { on_prim = (fun _ _ _ -> ()); on_call = (fun _ _ -> ()); on_return = (fun _ -> ()) }

type t = {
  env : Env.t;
  fns : (string, Value.lambda) Hashtbl.t;
  funargs : (int, Value.lambda * Env.snapshot) Hashtbl.t;
  mutable next_funarg : int;
  mutable hooks : hooks;
  input : Sexp.Datum.t Queue.t;
  mutable output_rev : Sexp.Datum.t list;
  mutable steps : int;
  max_steps : int;
}

(* prog control flow *)
exception Go of string
exception Return_from_prog of Value.t

let fail fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let create ?(strategy = Env.Deep) ?(max_steps = 50_000_000) ?(hooks = no_hooks) () =
  { env = Env.create strategy; fns = Hashtbl.create 64;
    funargs = Hashtbl.create 8; next_funarg = 0; hooks;
    input = Queue.create (); output_rev = []; steps = 0; max_steps }

let set_hooks t hooks = t.hooks <- hooks

let env t = t.env

let provide_input t ds = List.iter (fun d -> Queue.add d t.input) ds

let output t = List.rev t.output_rev

let clear_output t = t.output_rev <- []

let steps t = t.steps

let defined_functions t = Hashtbl.fold (fun k _ acc -> k :: acc) t.fns []

(* ---- primitives ---- *)

let as_int name = function
  | Value.Int n -> n
  | v -> fail "%s: expected integer, got %s" name (Value.to_string v)

let as_pair name = function
  | Value.Pair p -> p
  | v -> fail "%s: expected a list cell, got %s" name (Value.to_string v)

let bool_v b = if b then Value.T else Value.Nil

(* The primitive table: name -> arity, implementation.  The five list
   primitives fire the on_prim hook; that is the entire trace surface of
   §3.3.1. *)
let prim_arity = Hashtbl.create 64

let prims : (string, t -> Value.t list -> Value.t) Hashtbl.t = Hashtbl.create 64

let defprim name arity fn =
  Hashtbl.replace prim_arity name arity;
  Hashtbl.replace prims name fn

let () =
  (* list primitives *)
  defprim "car" 1 (fun _ args ->
      match args with
      | [ Value.Nil ] -> Value.Nil
      | [ v ] -> (as_pair "car" v).car
      | _ -> assert false);
  defprim "cdr" 1 (fun _ args ->
      match args with
      | [ Value.Nil ] -> Value.Nil
      | [ v ] -> (as_pair "cdr" v).cdr
      | _ -> assert false);
  defprim "cons" 2 (fun _ args ->
      match args with
      | [ a; d ] -> Value.cons a d
      | _ -> assert false);
  defprim "rplaca" 2 (fun _ args ->
      match args with
      | [ v; x ] ->
        let p = as_pair "rplaca" v in
        p.car <- x;
        v
      | _ -> assert false);
  defprim "rplacd" 2 (fun _ args ->
      match args with
      | [ v; x ] ->
        let p = as_pair "rplacd" v in
        p.cdr <- x;
        v
      | _ -> assert false);
  (* predicates *)
  defprim "atom" 1 (fun _ args -> bool_v (Value.is_atom (List.hd args)));
  defprim "null" 1 (fun _ args -> bool_v (List.hd args = Value.Nil));
  defprim "not" 1 (fun _ args -> bool_v (not (Value.truthy (List.hd args))));
  defprim "eq" 2 (fun _ args ->
      match args with [ a; b ] -> bool_v (Value.eq a b) | _ -> assert false);
  defprim "equal" 2 (fun _ args ->
      match args with [ a; b ] -> bool_v (Value.equal a b) | _ -> assert false);
  defprim "greaterp" 2 (fun _ args ->
      match args with
      | [ a; b ] -> bool_v (as_int "greaterp" a > as_int "greaterp" b)
      | _ -> assert false);
  defprim "lessp" 2 (fun _ args ->
      match args with
      | [ a; b ] -> bool_v (as_int "lessp" a < as_int "lessp" b)
      | _ -> assert false);
  defprim "zerop" 1 (fun _ args -> bool_v (as_int "zerop" (List.hd args) = 0));
  defprim "numberp" 1 (fun _ args ->
      bool_v (match List.hd args with Value.Int _ -> true | _ -> false));
  defprim "symbolp" 1 (fun _ args ->
      bool_v (match List.hd args with Value.Sym _ | Value.T | Value.Nil -> true | _ -> false));
  (* arithmetic; the classical names plus operator aliases *)
  let arith name fn =
    defprim name 2 (fun _ args ->
        match args with
        | [ a; b ] -> Value.Int (fn (as_int name a) (as_int name b))
        | _ -> assert false)
  in
  arith "plus" ( + );
  arith "+" ( + );
  arith "difference" ( - );
  arith "-" ( - );
  arith "times" ( * );
  arith "*" ( * );
  arith "quotient" (fun a b -> if b = 0 then fail "quotient: division by zero" else a / b);
  arith "/" (fun a b -> if b = 0 then fail "/: division by zero" else a / b);
  arith "remainder" (fun a b -> if b = 0 then fail "remainder: division by zero" else a mod b);
  arith "min" min;
  arith "max" max;
  defprim "add1" 1 (fun _ args -> Value.Int (as_int "add1" (List.hd args) + 1));
  defprim "sub1" 1 (fun _ args -> Value.Int (as_int "sub1" (List.hd args) - 1));
  defprim "=" 2 (fun _ args ->
      match args with
      | [ a; b ] -> bool_v (as_int "=" a = as_int "=" b)
      | _ -> assert false);
  (* i/o *)
  defprim "read" 0 (fun t _ ->
      match Queue.take_opt t.input with
      | Some d -> Value.of_datum d
      | None -> Value.Nil);
  defprim "write" 1 (fun t args ->
      let v = List.hd args in
      t.output_rev <- Value.to_datum v :: t.output_rev;
      v);
  defprim "print" 1 (fun t args ->
      let v = List.hd args in
      t.output_rev <- Value.to_datum v :: t.output_rev;
      v);
  defprim "gensym" 0
    (let counter = ref 0 in
     fun _ _ ->
       incr counter;
       Value.Sym (Printf.sprintf "gs%d" !counter))

let traced = [ "car"; "cdr"; "cons"; "rplaca"; "rplacd" ]

let apply_prim t name args =
  (match Hashtbl.find_opt prim_arity name with
   | Some arity when arity <> List.length args ->
     fail "%s: expected %d arguments, got %d" name arity (List.length args)
   | Some _ -> ()
   | None -> fail "unknown primitive %s" name);
  let fn = Hashtbl.find prims name in
  let result = fn t args in
  if List.mem name traced then t.hooks.on_prim name args result;
  result

(* ---- evaluation ---- *)

let rec value_to_list = function
  | Value.Nil -> []
  | Value.Pair { car; cdr; _ } -> car :: value_to_list cdr
  | v -> fail "expected a proper list, got %s" (Value.to_string v)

let params_of = function
  | Value.Nil -> []
  | v ->
    List.map
      (function
        | Value.Sym s -> s
        | v -> fail "lambda parameter must be a symbol, got %s" (Value.to_string v))
      (value_to_list v)

let rec eval t (v : Value.t) : Value.t =
  t.steps <- t.steps + 1;
  if t.steps > t.max_steps then fail "evaluation step limit exceeded";
  match v with
  | Value.Nil | Value.T | Value.Int _ | Value.Str _ | Value.Subr _ | Value.Lambda _
  | Value.Funarg _ -> v
  | Value.Sym s ->
    (match Env.lookup_opt t.env s with
     | Some v -> v
     | None -> fail "unbound variable %s" s)
  | Value.Pair { car = head; cdr = rest; _ } ->
    (match head with
     | Value.Sym s -> eval_form t s rest
     | Value.Pair { car = Value.Sym "lambda"; cdr = lam; _ } ->
       (* ((lambda (params) body...) args...) *)
       let lambda = parse_lambda lam in
       let args = List.map (eval t) (value_to_list rest) in
       apply_lambda t "#lambda" lambda args
     | _ -> fail "cannot apply %s" (Value.to_string head))

and parse_lambda lam =
  match value_to_list lam with
  | params :: body when body <> [] -> { Value.params = params_of params; body }
  | _ -> fail "malformed lambda"

and eval_form t s rest =
  match s with
  | "quote" ->
    (match value_to_list rest with
     | [ v ] -> v
     | _ -> fail "quote: expected one argument")
  | "cond" -> eval_cond t (value_to_list rest)
  | "if" ->
    (match value_to_list rest with
     | [ c; th ] -> if Value.truthy (eval t c) then eval t th else Value.Nil
     | [ c; th; el ] -> if Value.truthy (eval t c) then eval t th else eval t el
     | _ -> fail "if: expected 2 or 3 arguments")
  | "and" ->
    let rec go = function
      | [] -> Value.T
      | [ last ] -> eval t last
      | x :: more -> if Value.truthy (eval t x) then go more else Value.Nil
    in
    go (value_to_list rest)
  | "or" ->
    let rec go = function
      | [] -> Value.Nil
      | x :: more ->
        let v = eval t x in
        if Value.truthy v then v else go more
    in
    go (value_to_list rest)
  | "progn" -> eval_seq t (value_to_list rest)
  | "setq" ->
    (match value_to_list rest with
     | [ Value.Sym name; expr ] ->
       let v = eval t expr in
       Env.set t.env name v;
       v
     | _ -> fail "setq: expected (setq name expr)")
  | "let" ->
    (match value_to_list rest with
     | bindings :: body ->
       let parsed =
         List.map
           (fun b ->
              match value_to_list b with
              | [ Value.Sym name; expr ] -> (name, eval t expr)
              | [ Value.Sym name ] -> (name, Value.Nil)
              | _ -> fail "let: malformed binding")
           (value_to_list bindings)
       in
       Env.enter_frame t.env;
       List.iter (fun (name, v) -> Env.bind t.env name v) parsed;
       Fun.protect
         ~finally:(fun () -> Env.exit_frame t.env)
         (fun () -> eval_seq t body)
     | [] -> fail "let: missing bindings")
  | "while" ->
    (match value_to_list rest with
     | test :: body ->
       while Value.truthy (eval t test) do
         ignore (eval_seq t body)
       done;
       Value.Nil
     | [] -> fail "while: missing test")
  | "prog" -> eval_prog t (value_to_list rest)
  | "go" ->
    (match value_to_list rest with
     | [ Value.Sym label ] -> raise (Go label)
     | _ -> fail "go: expected a label")
  | "return" ->
    (match value_to_list rest with
     | [ expr ] -> raise (Return_from_prog (eval t expr))
     | [] -> raise (Return_from_prog Value.Nil)
     | _ -> fail "return: expected at most one value")
  | "def" ->
    (match value_to_list rest with
     | [ Value.Sym name; lam ] ->
       (match lam with
        | Value.Pair { car = Value.Sym "lambda"; cdr = body; _ } ->
          Hashtbl.replace t.fns name (parse_lambda body);
          Value.Sym name
        | _ -> fail "def: expected (def name (lambda ...))")
     | _ -> fail "def: expected (def name (lambda ...))")
  | "defun" ->
    (* (defun name (params) body...) sugar *)
    (match value_to_list rest with
     | Value.Sym name :: params :: body when body <> [] ->
       Hashtbl.replace t.fns name { Value.params = params_of params; body };
       Value.Sym name
     | _ -> fail "defun: expected (defun name (params) body...)")
  | "lambda" -> Value.Lambda (parse_lambda rest)
  | "function" ->
    (* (function (lambda ...)) or (function name): capture the current
       referencing context with the function — a funarg (§2.2.1) *)
    (match value_to_list rest with
     | [ Value.Pair { car = Value.Sym "lambda"; cdr = lam; _ } ] ->
       make_funarg t (parse_lambda lam)
     | [ Value.Sym name ] ->
       (match Hashtbl.find_opt t.fns name with
        | Some lambda -> make_funarg t lambda
        | None -> fail "function: %s is not defined" name)
     | _ -> fail "function: expected a lambda or a function name")
  | "funcall" ->
    (match value_to_list rest with
     | fexpr :: args ->
       let f = eval t fexpr in
       let args = List.map (eval t) args in
       apply_value t f args
     | [] -> fail "funcall: missing function")
  | _ -> eval_call t s rest

and make_funarg t lambda =
  let k = t.next_funarg in
  t.next_funarg <- k + 1;
  Hashtbl.replace t.funargs k (lambda, Env.capture t.env);
  Value.Funarg k

and apply_value t f args =
  match f with
  | Value.Lambda lambda -> apply_lambda t "#lambda" lambda args
  | Value.Funarg k ->
    (match Hashtbl.find_opt t.funargs k with
     | Some (lambda, snapshot) ->
       (* evaluate in the referencing context captured at creation *)
       Env.with_snapshot t.env snapshot (fun () ->
           apply_lambda t "#funarg" lambda args)
     | None -> fail "dangling funarg")
  | Value.Subr prim -> apply_prim t prim args
  | Value.Sym name ->
    (match Hashtbl.find_opt t.fns name with
     | Some lambda -> apply_lambda t name lambda args
     | None -> fail "funcall: undefined function %s" name)
  | v -> fail "cannot apply %s" (Value.to_string v)

and eval_cond t legs =
  match legs with
  | [] -> Value.Nil
  | leg :: more ->
    (match value_to_list leg with
     | [] -> fail "cond: empty leg"
     | test :: body ->
       let v = eval t test in
       if Value.truthy v then if body = [] then v else eval_seq t body
       else eval_cond t more)

and eval_seq t = function
  | [] -> Value.Nil
  | [ last ] -> eval t last
  | x :: more ->
    ignore (eval t x);
    eval_seq t more

and eval_prog t forms =
  match forms with
  | [] -> fail "prog: missing locals"
  | locals :: body ->
    let locals = params_of locals in
    let body = Array.of_list body in
    let labels = Hashtbl.create 8 in
    Array.iteri
      (fun i form -> match form with Value.Sym l -> Hashtbl.replace labels l i | _ -> ())
      body;
    Env.enter_frame t.env;
    List.iter (fun name -> Env.bind t.env name Value.Nil) locals;
    Fun.protect
      ~finally:(fun () -> Env.exit_frame t.env)
      (fun () ->
         let result = ref Value.Nil in
         (try
            let i = ref 0 in
            while !i < Array.length body do
              (match body.(!i) with
               | Value.Sym _ -> ()  (* label *)
               | form ->
                 (try ignore (eval t form)
                  with Go label ->
                    (match Hashtbl.find_opt labels label with
                     | Some target -> i := target - 1
                     | None -> raise (Go label))));
              incr i
            done
          with Return_from_prog v -> result := v);
         !result)

and eval_call t name rest =
  let args = List.map (eval t) (value_to_list rest) in
  match Hashtbl.find_opt t.fns name with
  | Some lambda -> apply_lambda t name lambda args
  | None ->
    if Hashtbl.mem prims name then apply_prim t name args
    else begin
      (* A variable bound to a functional value. *)
      match Env.lookup_opt t.env name with
      | Some (Value.Lambda _ as f) | Some (Value.Funarg _ as f)
      | Some (Value.Subr _ as f) ->
        apply_value t f args
      | _ -> fail "undefined function %s" name
    end

and apply_lambda t name lambda args =
  if List.length lambda.Value.params <> List.length args then
    fail "%s: expected %d arguments, got %d" name (List.length lambda.Value.params)
      (List.length args);
  t.hooks.on_call name (List.length args);
  Env.enter_frame t.env;
  List.iter2 (fun p a -> Env.bind t.env p a) lambda.Value.params args;
  Fun.protect
    ~finally:(fun () ->
        Env.exit_frame t.env;
        t.hooks.on_return name)
    (fun () -> eval_seq t lambda.Value.body)

let eval_datum t d = eval t (Value.of_datum d)

let run_program t source =
  List.fold_left (fun _ d -> eval_datum t d) Value.Nil (Sexp.parse_many source)
