type t =
  | Nil
  | T
  | Sym of string
  | Int of int
  | Str of string
  | Pair of pair
  | Subr of string
  | Lambda of lambda
  | Funarg of int   (* key into the interpreter's funarg table *)

and pair = { mutable car : t; mutable cdr : t; mutable on_path : bool }

and lambda = {
  params : string list;
  body : t list;
}

let nil = Nil
let t_ = T
let sym s = Sym s
let int n = Int n
let cons a d = Pair { car = a; cdr = d; on_path = false }

let list vs = List.fold_right cons vs Nil

let rec of_datum (d : Sexp.Datum.t) : t =
  match d with
  | Nil -> Nil
  | Sym "t" -> T
  | Sym s -> Sym s
  | Int n -> Int n
  | Str s -> Str s
  | Cons (a, x) -> cons (of_datum a) (of_datum x)

let to_datum v =
  (* Cycle-safe: cut when revisiting a pair already on the current path.
     A pair's [on_path] flag is set while its subtree converts, so the
     check is O(1) however long the spine. *)
  let rec go (v : t) : Sexp.Datum.t =
    match v with
    | Nil -> Nil
    | T -> Sym "t"
    | Sym s -> Sym s
    | Int n -> Int n
    | Str s -> Str s
    | Subr name -> Sym ("#subr:" ^ name)
    | Lambda _ -> Sym "#lambda"
    | Funarg k -> Sym (Printf.sprintf "#funarg%d" k)
    | Pair p ->
      if p.on_path then Sym "<cycle>"
      else begin
        p.on_path <- true;
        let car = go p.car in
        let cdr = go p.cdr in
        p.on_path <- false;
        Cons (car, cdr)
      end
  in
  (* If the conversion is cut short, the flagged pairs are a path from
     [v]: clear them so that no later conversion sees a false cycle. *)
  let rec clear = function
    | Pair p when p.on_path -> p.on_path <- false; clear p.car; clear p.cdr
    | _ -> ()
  in
  try go v
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    clear v;
    Printexc.raise_with_backtrace e bt

let truthy = function
  | Nil -> false
  | T | Sym _ | Int _ | Str _ | Pair _ | Subr _ | Lambda _ | Funarg _ -> true

let equal a b =
  let rec go depth a b =
    if depth > 10_000 then true (* deep or cyclic: treat as equal beyond bound *)
    else
      match a, b with
      | Nil, Nil | T, T -> true
      | Sym x, Sym y -> String.equal x y
      | Int x, Int y -> x = y
      | Str x, Str y -> String.equal x y
      | Subr x, Subr y -> String.equal x y
      | Lambda x, Lambda y -> x == y
      | Funarg x, Funarg y -> x = y
      | Pair x, Pair y ->
        x == y || (go (depth + 1) x.car y.car && go (depth + 1) x.cdr y.cdr)
      | (Nil | T | Sym _ | Int _ | Str _ | Pair _ | Subr _ | Lambda _ | Funarg _), _ ->
        false
  in
  go 0 a b

let eq a b =
  match a, b with
  | Pair x, Pair y -> x == y
  | Lambda x, Lambda y -> x == y
  | (Nil | T | Sym _ | Int _ | Str _ | Subr _ | Funarg _), _ -> a = b
  | (Pair _ | Lambda _), _ -> false

let is_atom = function
  | Pair _ -> false
  | Nil | T | Sym _ | Int _ | Str _ | Subr _ | Lambda _ | Funarg _ -> true

let pp ppf v = Sexp.pp ppf (to_datum v)
let to_string v = Sexp.to_string (to_datum v)
