// Package minibank builds the paper's running example (§2): a simplified
// bank with customers (parties: individuals and organizations) that buy
// and sell financial instruments. It materialises all three artefacts
// SODA needs: the physical database with deterministic synthetic base
// data, the extended metadata graph of Figure 3 (conceptual schema of
// Fig. 1, logical schema of Fig. 2, physical schema, domain ontology,
// DBpedia synonyms), and the inverted index over text columns.
//
// The world is wired so the paper's worked examples hold:
//
//   - "customers Zürich financial instruments" classifies as 1×1×2 entry
//     points (Figure 5) and its tables step yields the 7 tables of
//     Figure 6 (parties, individuals, organizations, addresses,
//     financial_instruments, fi_contains_sec, securities).
//   - "Sara Guttinger" exists in individuals, with an address in Zürich
//     (Query 1).
//   - "wealthy customers" is a metadata-defined filter on salary.
//   - physical names are cryptic where the paper says so: "birth date"
//     is stored in column birth_dt (§6.2).
package minibank

import (
	"fmt"
	"math/rand"
	"time"

	"soda/internal/backend"
	"soda/internal/invidx"
	"soda/internal/metagraph"
	"soda/internal/rdf"
)

// World bundles the three artefacts of the running example.
type World struct {
	DB    *backend.DB
	Meta  *metagraph.Graph
	Index *invidx.Index

	// Nodes of interest, for tests and walkthroughs.
	Nodes map[string]rdf.Term
}

// Config sizes the synthetic data. The zero value is replaced by Default.
type Config struct {
	Seed          int64
	Individuals   int
	Organizations int
	Instruments   int
	Securities    int
	Transactions  int
}

// Default returns the standard configuration used by tests and examples.
func Default() Config {
	return Config{
		Seed:          1,
		Individuals:   150,
		Organizations: 40,
		Instruments:   30,
		Securities:    50,
		Transactions:  2000,
	}
}

var (
	firstNames = []string{
		"Sara", "Hans", "Anna", "Peter", "Maria", "Urs", "Claudia", "Marco",
		"Julia", "Thomas", "Nina", "Lukas", "Elena", "Stefan", "Laura",
		"Daniel", "Petra", "Michael", "Karin", "Andreas",
	}
	lastNames = []string{
		"Guttinger", "Muller", "Meier", "Schmid", "Keller", "Weber",
		"Huber", "Schneider", "Frey", "Baumann", "Fischer", "Brunner",
		"Gerber", "Widmer", "Zimmermann", "Moser", "Graf", "Roth",
	}
	cities = []string{
		"Zürich", "Geneva", "Basel", "Bern", "Lausanne", "Lugano",
		"St Gallen", "Winterthur", "Lucerne", "Zug",
	}
	orgNames = []string{
		"Credit Suisse", "Acme Fund", "Helvetia Trading", "Alpine Capital",
		"Lakeside Holdings", "Summit Partners", "Glacier Invest",
		"Matterhorn Group", "Rhine Ventures", "Jura Industries",
	}
	instrumentKinds = []string{"share", "fund", "hedge fund", "certificate", "bond"}
	currencies      = []string{"CHF", "USD", "EUR", "GBP", "YEN", "SEK"}
	secIssuers      = []string{"IBM", "Nestle", "Novartis", "Roche", "UBS", "Siemens", "Lehman XYZ"}
)

// Build constructs the mini-bank world.
func Build(cfg Config) *World {
	w := BuildNoIndex(cfg)
	w.Index = invidx.Build(w.DB)
	return w
}

// BuildNoIndex constructs the world without its inverted index, for
// callers that build the index later, on its own goroutine (soda.World
// builds it on first use).
func BuildNoIndex(cfg Config) *World {
	if cfg == (Config{}) {
		cfg = Default()
	}
	w := &World{Nodes: make(map[string]rdf.Term)}
	w.DB = buildData(cfg)
	w.Meta = buildMeta(w.Nodes)
	return w
}

// buildData creates the physical tables of Figure 2 and fills them with
// deterministic synthetic rows.
func buildData(cfg Config) *backend.DB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := backend.NewDB()

	parties := db.Create("parties",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "kind", Type: backend.TString})
	individuals := db.Create("individuals",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "firstname", Type: backend.TString},
		backend.Column{Name: "lastname", Type: backend.TString},
		backend.Column{Name: "salary", Type: backend.TFloat},
		backend.Column{Name: "birth_dt", Type: backend.TDate})
	organizations := db.Create("organizations",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "companyname", Type: backend.TString},
		backend.Column{Name: "country", Type: backend.TString})
	addresses := db.Create("addresses",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "individual_id", Type: backend.TInt},
		backend.Column{Name: "city", Type: backend.TString},
		backend.Column{Name: "street", Type: backend.TString})
	transactions := db.Create("transactions",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "fromparty", Type: backend.TInt},
		backend.Column{Name: "toparty", Type: backend.TInt},
		backend.Column{Name: "trade_dt", Type: backend.TDate})
	fiTx := db.Create("fi_transactions",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "instrument_id", Type: backend.TInt},
		backend.Column{Name: "amount", Type: backend.TFloat})
	moneyTx := db.Create("money_transactions",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "amount", Type: backend.TFloat},
		backend.Column{Name: "currency", Type: backend.TString})
	instruments := db.Create("financial_instruments",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "name", Type: backend.TString},
		backend.Column{Name: "kind", Type: backend.TString})
	securities := db.Create("securities",
		backend.Column{Name: "id", Type: backend.TInt},
		backend.Column{Name: "name", Type: backend.TString},
		backend.Column{Name: "issuer", Type: backend.TString})
	fiContainsSec := db.Create("fi_contains_sec",
		backend.Column{Name: "fi_id", Type: backend.TInt},
		backend.Column{Name: "sec_id", Type: backend.TInt})

	// Individuals: party ids 1..N. Row 1 is Sara Guttinger (the paper's
	// Query 1 subject), wealthy enough to be interesting but below the
	// "wealthy" threshold so metadata filters are distinguishable.
	id := 0
	for i := 0; i < cfg.Individuals; i++ {
		id++
		parties.Insert(backend.Int(int64(id)), backend.Str("individual"))
		first := firstNames[rng.Intn(len(firstNames))]
		last := lastNames[rng.Intn(len(lastNames))]
		salary := float64(40000 + rng.Intn(2000000))
		birth := time.Date(1940+rng.Intn(60), time.Month(1+rng.Intn(12)), 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)
		if i == 0 {
			first, last = "Sara", "Guttinger"
			salary = 95000
			birth = time.Date(1981, 4, 23, 0, 0, 0, 0, time.UTC)
		}
		individuals.Insert(backend.Int(int64(id)), backend.Str(first), backend.Str(last),
			backend.Float(salary), backend.DateOf(birth))

		city := cities[rng.Intn(len(cities))]
		if i == 0 {
			city = "Zürich"
		}
		addresses.Insert(backend.Int(int64(1000+id)), backend.Int(int64(id)),
			backend.Str(city), backend.Str(fmt.Sprintf("Street %d", rng.Intn(200)+1)))
	}

	// Organizations: party ids continue after individuals.
	for i := 0; i < cfg.Organizations; i++ {
		id++
		parties.Insert(backend.Int(int64(id)), backend.Str("organization"))
		name := orgNames[i%len(orgNames)]
		if i >= len(orgNames) {
			name = fmt.Sprintf("%s %d", name, i/len(orgNames)+1)
		}
		organizations.Insert(backend.Int(int64(id)), backend.Str(name), backend.Str("Switzerland"))
	}

	// Financial instruments and securities; instruments contain securities
	// through the bridge table (funds hold shares).
	for i := 0; i < cfg.Instruments; i++ {
		kind := instrumentKinds[rng.Intn(len(instrumentKinds))]
		instruments.Insert(backend.Int(int64(i+1)),
			backend.Str(fmt.Sprintf("%s instrument %d", kind, i+1)), backend.Str(kind))
	}
	for i := 0; i < cfg.Securities; i++ {
		issuer := secIssuers[rng.Intn(len(secIssuers))]
		securities.Insert(backend.Int(int64(i+1)),
			backend.Str(fmt.Sprintf("%s share %d", issuer, i+1)), backend.Str(issuer))
	}
	seenPair := make(map[[2]int]bool)
	for i := 0; i < cfg.Instruments*3; i++ {
		fi := rng.Intn(cfg.Instruments) + 1
		sec := rng.Intn(cfg.Securities) + 1
		if seenPair[[2]int{fi, sec}] {
			continue
		}
		seenPair[[2]int{fi, sec}] = true
		fiContainsSec.Insert(backend.Int(int64(fi)), backend.Int(int64(sec)))
	}

	// Transactions: 80% financial-instrument trades, 20% money transfers.
	nParties := cfg.Individuals + cfg.Organizations
	for i := 0; i < cfg.Transactions; i++ {
		txID := int64(i + 1)
		from := int64(rng.Intn(nParties) + 1)
		to := int64(rng.Intn(nParties) + 1)
		day := time.Date(2009, 1, 1, 0, 0, 0, 0, time.UTC).
			AddDate(0, 0, rng.Intn(3*365))
		transactions.Insert(backend.Int(txID), backend.Int(from), backend.Int(to), backend.DateOf(day))
		amount := 100 + rng.Float64()*100000
		if rng.Float64() < 0.8 {
			fiTx.Insert(backend.Int(txID),
				backend.Int(int64(rng.Intn(cfg.Instruments)+1)), backend.Float(amount))
		} else {
			moneyTx.Insert(backend.Int(txID), backend.Float(amount),
				backend.Str(currencies[rng.Intn(len(currencies))]))
		}
	}
	return db
}

// buildMeta wires the three schema layers, the domain ontology and the
// DBpedia extract of the running example.
func buildMeta(nodes map[string]rdf.Term) *metagraph.Graph {
	b := metagraph.NewBuilder()

	// ---- Physical layer (tables of Figure 2, bottom of Figure 3).
	tParties := b.PhysicalTable("parties")
	cPartiesID := b.PhysicalColumn(tParties, "id", "int")
	b.PhysicalColumn(tParties, "kind", "text")

	tInd := b.PhysicalTable("individuals")
	cIndID := b.PhysicalColumn(tInd, "id", "int")
	cIndFirst := b.PhysicalColumn(tInd, "firstname", "text")
	cIndLast := b.PhysicalColumn(tInd, "lastname", "text")
	cIndSalary := b.PhysicalColumn(tInd, "salary", "float")
	cIndBirth := b.PhysicalColumn(tInd, "birth_dt", "date")

	tOrg := b.PhysicalTable("organizations")
	cOrgID := b.PhysicalColumn(tOrg, "id", "int")
	cOrgName := b.PhysicalColumn(tOrg, "companyname", "text")
	b.PhysicalColumn(tOrg, "country", "text")

	tAddr := b.PhysicalTable("addresses")
	b.PhysicalColumn(tAddr, "id", "int")
	cAddrInd := b.PhysicalColumn(tAddr, "individual_id", "int")
	cAddrCity := b.PhysicalColumn(tAddr, "city", "text")
	b.PhysicalColumn(tAddr, "street", "text")

	tTx := b.PhysicalTable("transactions")
	cTxID := b.PhysicalColumn(tTx, "id", "int")
	cTxFrom := b.PhysicalColumn(tTx, "fromparty", "int")
	cTxTo := b.PhysicalColumn(tTx, "toparty", "int")
	cTxDate := b.PhysicalColumn(tTx, "trade_dt", "date")

	tFiTx := b.PhysicalTable("fi_transactions")
	cFiTxID := b.PhysicalColumn(tFiTx, "id", "int")
	cFiTxInstr := b.PhysicalColumn(tFiTx, "instrument_id", "int")
	cFiTxAmount := b.PhysicalColumn(tFiTx, "amount", "float")

	tMoneyTx := b.PhysicalTable("money_transactions")
	cMoneyTxID := b.PhysicalColumn(tMoneyTx, "id", "int")
	b.PhysicalColumn(tMoneyTx, "amount", "float")
	cMoneyCur := b.PhysicalColumn(tMoneyTx, "currency", "text")

	tFi := b.PhysicalTable("financial_instruments")
	cFiID := b.PhysicalColumn(tFi, "id", "int")
	b.PhysicalColumn(tFi, "name", "text")
	b.PhysicalColumn(tFi, "kind", "text")

	tSec := b.PhysicalTable("securities")
	cSecID := b.PhysicalColumn(tSec, "id", "int")
	b.PhysicalColumn(tSec, "name", "text")
	b.PhysicalColumn(tSec, "issuer", "text")

	tBridge := b.PhysicalTable("fi_contains_sec")
	cBridgeFi := b.PhysicalColumn(tBridge, "fi_id", "int")
	cBridgeSec := b.PhysicalColumn(tBridge, "sec_id", "int")

	// Joins: inheritance children share the parent's key (how DBAs
	// implement mutually exclusive inheritance); plain FKs elsewhere.
	b.ForeignKey(cIndID, cPartiesID)
	b.ForeignKey(cOrgID, cPartiesID)
	b.Inheritance(tParties, tInd, tOrg)

	b.ForeignKey(cAddrInd, cIndID)
	b.ForeignKey(cTxFrom, cPartiesID)
	b.ForeignKey(cTxTo, cPartiesID)

	b.ForeignKey(cFiTxID, cTxID)
	b.ForeignKey(cMoneyTxID, cTxID)
	b.Inheritance(tTx, tFiTx, tMoneyTx)

	b.ForeignKey(cFiTxInstr, cFiID)
	b.ForeignKey(cBridgeFi, cFiID)
	b.ForeignKey(cBridgeSec, cSecID)

	// ---- Logical layer (Figure 2).
	logParties := b.LogicalEntity("parties")
	logInd := b.LogicalEntity("individuals")
	logOrg := b.LogicalEntity("organizations")
	logAddr := b.LogicalEntity("addresses")
	logTx := b.LogicalEntity("transactions")
	logFiTx := b.LogicalEntity("financial instrument transactions")
	logMoneyTx := b.LogicalEntity("money transactions")
	logFi := b.LogicalEntity("financialinstruments", "financial instruments")
	logSec := b.LogicalEntity("securities")

	b.Implements(logParties, tParties)
	b.Implements(logInd, tInd)
	b.Implements(logOrg, tOrg)
	b.Implements(logAddr, tAddr)
	b.Implements(logTx, tTx)
	b.Implements(logFiTx, tFiTx)
	b.Implements(logMoneyTx, tMoneyTx)
	b.Implements(logFi, tFi)
	b.Implements(logSec, tSec)

	// Logical relationships (direction: owner → referenced, so traversal
	// from "customers" reaches subtypes and addresses, but not the
	// transaction fact tables).
	b.Relates(logParties, logInd) // inheritance split (Fig. 2 "X")
	b.Relates(logParties, logOrg)
	b.Relates(logInd, logAddr)   // addresses split into their own table
	b.Relates(logTx, logParties) // transactions reference parties
	b.Relates(logTx, logFiTx)    // inheritance split of transactions
	b.Relates(logTx, logMoneyTx)
	b.Relates(logFiTx, logFi) // trades reference instruments
	b.Relates(logFi, logSec)  // N-to-N "contains" (via bridge)
	b.Relates(logFi, logFi)   // recursive structured instruments

	// Logical attributes with business names; physical names are cryptic
	// (§6.2: "birth date" is shortened to "birth_dt").
	aBirth := b.LogicalAttr(logInd, "birth date")
	b.Implements(aBirth, cIndBirth)
	aGiven := b.LogicalAttr(logInd, "given name")
	b.Implements(aGiven, cIndFirst)
	aFamily := b.LogicalAttr(logInd, "family name")
	b.Implements(aFamily, cIndLast)
	aSalary := b.LogicalAttr(logInd, "salary")
	b.Implements(aSalary, cIndSalary)
	aCity := b.LogicalAttr(logAddr, "city")
	b.Implements(aCity, cAddrCity)
	aTradeDate := b.LogicalAttr(logTx, "transaction date")
	b.Implements(aTradeDate, cTxDate)
	b.Label(aTradeDate, "trade date")
	aAmount := b.LogicalAttr(logFiTx, "amount")
	b.Implements(aAmount, cFiTxAmount)
	aCompany := b.LogicalAttr(logOrg, "company name")
	b.Implements(aCompany, cOrgName)
	aCurrency := b.LogicalAttr(logMoneyTx, "currency")
	b.Implements(aCurrency, cMoneyCur)

	// ---- Conceptual layer (Figure 1).
	conParties := b.ConceptEntity("parties")
	conInd := b.ConceptEntity("individuals")
	conOrg := b.ConceptEntity("organizations")
	conTx := b.ConceptEntity("transactions")
	conFi := b.ConceptEntity("financial instruments")

	b.Implements(conParties, logParties)
	b.Implements(conInd, logInd)
	b.Implements(conOrg, logOrg)
	b.Implements(conTx, logTx)
	b.Implements(conFi, logFi)

	b.Relates(conParties, conInd) // inheritance (Fig. 1 "X")
	b.Relates(conParties, conOrg)
	b.Relates(conTx, conParties) // N-to-1 transactions → parties
	b.Relates(conTx, conFi)      // N-to-N transactions ↔ instruments
	b.Relates(conFi, conFi)      // recursive instruments

	// ---- Domain ontology (financial classification, §2.2).
	ontCustomers := b.OntologyConcept("customers",
		[]rdf.Term{conParties}, "customer", "clients")
	ontPrivate := b.OntologyConcept("private customers",
		[]rdf.Term{logInd}, "private customer", "private clients")
	ontCorporate := b.OntologyConcept("corporate customers",
		[]rdf.Term{logOrg}, "corporate customer", "corporate clients")
	ontWealthy := b.OntologyConcept("wealthy customers",
		[]rdf.Term{logInd}, "wealthy individuals", "wealthy customer")
	ontNames := b.OntologyConcept("names",
		[]rdf.Term{aGiven, aFamily, aCompany}, "name")
	ontVolume := b.OntologyConcept("trading volume",
		[]rdf.Term{aAmount}, "trade volume")
	ontProducts := b.OntologyConcept("investment products",
		[]rdf.Term{conFi}, "banking products", "investment product")

	b.SubConcept(ontPrivate, ontCustomers)
	b.SubConcept(ontCorporate, ontCustomers)
	b.SubConcept(ontWealthy, ontPrivate)
	b.MetadataFilter(ontWealthy, cIndSalary, ">=", "1000000")
	b.ImpliesAggregation(ontVolume, "sum")

	// ---- DBpedia extract (§2.2: "for the term 'Parties' ... the
	// following entries have been extracted: customer, client, political
	// organization").
	b.DBpediaEntry("client", conParties)
	b.DBpediaEntry("political organization", conParties)
	b.DBpediaEntry("company", conOrg)
	b.DBpediaEntry("firm", conOrg)
	b.DBpediaEntry("stock", logSec)
	b.DBpediaEntry("share", logSec)
	b.DBpediaEntry("payment", logMoneyTx)

	// Expose nodes that tests and walkthroughs reference.
	for k, v := range map[string]rdf.Term{
		"tbl:parties":               tParties,
		"tbl:individuals":           tInd,
		"tbl:organizations":         tOrg,
		"tbl:addresses":             tAddr,
		"tbl:transactions":          tTx,
		"tbl:fi_transactions":       tFiTx,
		"tbl:money_transactions":    tMoneyTx,
		"tbl:financial_instruments": tFi,
		"tbl:securities":            tSec,
		"tbl:fi_contains_sec":       tBridge,
		"col:salary":                cIndSalary,
		"col:birth_dt":              cIndBirth,
		"col:city":                  cAddrCity,
		"col:amount":                cFiTxAmount,
		"con:financial_instruments": conFi,
		"log:financialinstruments":  logFi,
		"ont:customers":             ontCustomers,
		"ont:wealthy":               ontWealthy,
		"ont:private":               ontPrivate,
		"ont:volume":                ontVolume,
		"ont:names":                 ontNames,
		"ont:products":              ontProducts,
	} {
		nodes[k] = v
	}
	return b.Graph()
}
