type status =
  [ `Ok | `Error | `Overloaded | `Shard_down | `Timeout | `Cancelled | `Shed
  | `Other | `Absent ]

type header = {
  id : int;
  id_end : int;
  status : status;
  cached : bool;
  shard_at : int;
  shard_len : int;
}

(* Every helper takes the line and an offset and returns an offset, so
   the walk builds no closure, tuple or substring. *)

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let rec skip_ws s i = if i < String.length s && is_ws s.[i] then skip_ws s (i + 1) else i

(* [i] is just past an opening quote; returns just past the closing one *)
let rec skip_string s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | '"' -> i + 1
    | '\\' -> skip_string s (i + 2)
    | _ -> skip_string s (i + 1)

(* [i] is just past an opening bracket; returns just past its match *)
let rec skip_nested s i depth =
  if i >= String.length s then i
  else
    match s.[i] with
    | '"' -> skip_nested s (skip_string s (i + 1)) depth
    | '{' | '[' -> skip_nested s (i + 1) (depth + 1)
    | '}' | ']' -> if depth = 0 then i + 1 else skip_nested s (i + 1) (depth - 1)
    | _ -> skip_nested s (i + 1) depth

let rec skip_scalar s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | ',' | '}' | ']' -> i
    | c when is_ws c -> i
    | _ -> skip_scalar s (i + 1)

let skip_value s i =
  if i >= String.length s then i
  else
    match s.[i] with
    | '"' -> skip_string s (i + 1)
    | '{' | '[' -> skip_nested s (i + 1) 0
    | _ -> skip_scalar s i

let rec same s a w k = k >= String.length w || (s.[a + k] = w.[k] && same s a w (k + 1))

(* Do the bytes [s.[a..b)] spell [w]? *)
let spells s a b w = b - a = String.length w && same s a w 0

let status_of s a b : status =
  if spells s a b "ok" then `Ok
  else if spells s a b "error" then `Error
  else if spells s a b "overloaded" then `Overloaded
  else if spells s a b "shard_down" then `Shard_down
  else if spells s a b "timeout" then `Timeout
  else if spells s a b "cancelled" then `Cancelled
  else if spells s a b "shed" then `Shed
  else `Other

(* [i] is where the next key's opening quote should be; one call per
   top-level field, the header's fields threaded as arguments *)
let rec fields s i ~id ~id_end ~status ~cached ~shard_at ~shard_len =
  let n = String.length s in
  let i = skip_ws s i in
  if i >= n || s.[i] <> '"' then { id; id_end; status; cached; shard_at; shard_len }
  else begin
    let k = i + 1 in
    let ke = skip_string s k in            (* key is s.[k .. ke - 1) *)
    let c = skip_ws s ke in
    if c >= n || s.[c] <> ':' then { id; id_end; status; cached; shard_at; shard_len }
    else begin
      let v = skip_ws s (c + 1) in
      let ve = skip_value s v in
      let is_str = v < n && s.[v] = '"' && ve > v + 1 in
      let status =
        if is_str && spells s k (ke - 1) "status" then status_of s (v + 1) (ve - 1)
        else status
      in
      let cached =
        if spells s k (ke - 1) "cached" then spells s v ve "true" else cached
      in
      let is_shard = is_str && spells s k (ke - 1) "shard" in
      let shard_at = if is_shard then v + 1 else shard_at in
      let shard_len = if is_shard then ve - v - 2 else shard_len in
      let j = skip_ws s ve in
      if j < n && s.[j] = ',' then
        fields s (j + 1) ~id ~id_end ~status ~cached ~shard_at ~shard_len
      else { id; id_end; status; cached; shard_at; shard_len }
    end
  end

let id_prefix = "{\"id\":"

let rec digits s i acc =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then
    digits s (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0'))
  else acc

let rec digits_end s i =
  if i < String.length s && s.[i] >= '0' && s.[i] <= '9' then digits_end s (i + 1) else i

let read s =
  let n = String.length s in
  let pl = String.length id_prefix in
  let id_end =
    if n > pl && spells s 0 pl id_prefix then
      let e = digits_end s pl in
      if e > pl then e else 0
    else 0
  in
  let id = if id_end > 0 then digits s pl 0 else -1 in
  let start =
    if id_end > 0 then (if id_end < n && s.[id_end] = ',' then id_end + 1 else n)
    else
      let i = skip_ws s 0 in
      if i < n && s.[i] = '{' then i + 1 else n
  in
  fields s start ~id ~id_end ~status:`Absent ~cached:false ~shard_at:(-1) ~shard_len:0

(* [prefix] then [s.[rest ..]], in one copy *)
let prefixed prefix s rest =
  let pn = String.length prefix and tail = String.length s - rest in
  let b = Bytes.create (pn + tail) in
  Bytes.blit_string prefix 0 b 0 pn;
  Bytes.blit_string s rest b pn tail;
  Bytes.unsafe_to_string b

let for_client ?client_id h s =
  let len = String.length s in
  let stripped = h.id >= 0 && h.id_end < len && s.[h.id_end] = ',' in
  (* the reply without its wire id is "{" ^ s.[rest ..] *)
  let rest = if stripped then h.id_end + 1 else 1 in
  let opens = if stripped then rest < len else len >= 2 && s.[0] = '{' in
  match client_id with
  | Some n when opens ->
    if rest = len - 1 && s.[rest] = '}' then id_prefix ^ string_of_int n ^ "}"
    else prefixed (id_prefix ^ string_of_int n ^ ",") s rest
  | Some _ | None -> if stripped then prefixed "{" s rest else s

let shard h s = if h.shard_at < 0 then None else Some (String.sub s h.shard_at h.shard_len)
